package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Provenance recovers the firing DAG of a recorded execution: every firing
// is a vertex, and an edge connects the firing that produced an element/token
// to the firing that consumed it. It is a post-run fold over a run's
// commit-ordered schedule — sched.Each(p.RecordFiring), the same shape
// package profile consumes — so a Gamma run renders as the dataflow graph the
// paper's §III-C equivalence says it is: on the Fig. 1 program the exported
// DOT is isomorphic to the paper's Fig. 1. Firings must arrive in commit
// order (a consumer after its producer), which only the schedule guarantees
// for a parallel run; not safe for concurrent use.
//
// Dependency threading follows profile.Collector: elements are matched by
// key, and duplicate keys (multiset multiplicity, token queues) stack, most
// recent producer first. Keys never consumed by a later firing become output
// vertices; keys consumed without a recorded producer are initial inputs.
type Provenance struct {
	// Labeler renders an element/token key as the label of input and output
	// vertices. Nil leaves keys as-is (dataflow token keys are already
	// readable; Gamma callers pass multiset.PrettyKey).
	Labeler func(key string) string

	firings []provFiring
	inputs  []provInput
	inputIx map[string]int
	// produced lists every produced key in production order; live maps a key
	// to the stack of indexes into produced that are not yet consumed.
	produced []provProduced
	live     map[string][]int
	edges    []provEdge
}

type provFiring struct{ name string }

type provInput struct{ key string }

type provProduced struct {
	key      string
	firing   int
	consumed bool
}

// provEdge connects producer to consumer; inputs are encoded as negative
// from-indexes (-1-inputIdx), firings as their index.
type provEdge struct{ from, to int }

// NewProvenance returns an empty provenance collector.
func NewProvenance() *Provenance {
	return &Provenance{inputIx: make(map[string]int), live: make(map[string][]int)}
}

// RecordFiring folds one firing into the DAG; its signature is the callback
// of (*replay.Schedule).Each.
func (p *Provenance) RecordFiring(name string, consumed, produced []string) {
	id := len(p.firings)
	p.firings = append(p.firings, provFiring{name: name})
	for _, key := range consumed {
		stack := p.live[key]
		if len(stack) == 0 {
			// No recorded producer: an initial element/token.
			ix, ok := p.inputIx[key]
			if !ok {
				ix = len(p.inputs)
				p.inputs = append(p.inputs, provInput{key: key})
				p.inputIx[key] = ix
			}
			p.edges = append(p.edges, provEdge{from: -1 - ix, to: id})
			continue
		}
		top := stack[len(stack)-1]
		p.live[key] = stack[:len(stack)-1]
		p.produced[top].consumed = true
		p.edges = append(p.edges, provEdge{from: p.produced[top].firing, to: id})
	}
	for _, key := range produced {
		p.produced = append(p.produced, provProduced{key: key, firing: id})
		p.live[key] = append(p.live[key], len(p.produced)-1)
	}
}

// Firings returns the number of recorded firings.
func (p *Provenance) Firings() int { return len(p.firings) }

func (p *Provenance) label(key string) string {
	if p.Labeler != nil {
		return p.Labeler(key)
	}
	return key
}

func dotEscape(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(s)
}

// WriteDOT renders the firing DAG as Graphviz DOT: initial elements and
// unconsumed products as boxes, firings as ellipses, dependencies as edges,
// all in deterministic (recording) order.
func (p *Provenance) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [fontname=\"Helvetica\"];\n")
	for i, in := range p.inputs {
		fmt.Fprintf(&b, "  i%d [shape=box, style=filled, fillcolor=\"#e8f0fe\", label=\"%s\"];\n",
			i, dotEscape(p.label(in.key)))
	}
	for i, f := range p.firings {
		fmt.Fprintf(&b, "  f%d [shape=ellipse, label=\"%s\"];\n", i, dotEscape(f.name))
	}
	outs := 0
	for _, pr := range p.produced {
		if pr.consumed {
			continue
		}
		fmt.Fprintf(&b, "  o%d [shape=box, style=filled, fillcolor=\"#e6f4ea\", label=\"%s\"];\n",
			outs, dotEscape(p.label(pr.key)))
		outs++
	}
	for _, e := range p.edges {
		if e.from < 0 {
			fmt.Fprintf(&b, "  i%d -> f%d;\n", -1-e.from, e.to)
		} else {
			fmt.Fprintf(&b, "  f%d -> f%d;\n", e.from, e.to)
		}
	}
	outs = 0
	for _, pr := range p.produced {
		if pr.consumed {
			continue
		}
		fmt.Fprintf(&b, "  f%d -> o%d;\n", pr.firing, outs)
		outs++
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
