package replay

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/multiset"
)

// Source is where a consumed element/token came from: Produced[Slot] of the
// step at index Step (0-based), or the initial state when Step is -1.
type Source struct{ Step, Slot int }

// Sources threads every consumed key of s to the product it consumed:
// Sources()[i][j] is the source of s.Steps[i].Consumed[j]. This is the
// firing DAG of §III-C — an edge joins the firing that produced an operand to
// the firing that consumed it — and every view of it is a fold over this one
// relation: the work/span Profile, the provenance DOT and a divergence's
// ancestors. Keys are matched exactly; among live carriers of one key
// (multiset multiplicity, token queues) the most recent unconsumed product is
// taken first, and a key with none comes from the initial state. Only the
// schedule's commit order puts every consumer after its producer on a
// parallel run, which is what makes the relation exact. O(total keys).
func (s *Schedule) Sources() [][]Source {
	n := 0
	for i := range s.Steps {
		n += len(s.Steps[i].Consumed)
	}
	flat, out := make([]Source, n), make([][]Source, len(s.Steps))
	live := make(map[string][]Source)
	for i := range s.Steps {
		st := &s.Steps[i]
		c := len(st.Consumed)
		out[i], flat = flat[:c:c], flat[c:]
		for j, key := range st.Consumed {
			out[i][j] = Source{Step: -1}
			if q := live[key]; len(q) > 0 {
				out[i][j], live[key] = q[len(q)-1], q[:len(q)-1]
			}
		}
		for j, key := range st.Produced {
			live[key] = append(live[key], Source{Step: i, Slot: j})
		}
	}
	return out
}

// ProfileReport is the work/span analysis of a schedule: model-level
// parallelism (the maximum speedup any scheduler could extract), the §I
// benefit of studying Gamma programs with dataflow analyses [2]. It
// quantifies the §III-A3 observation that reductions shrink parallelism: the
// fused Rd1 has span 1 where R1–R3 have span 2.
type ProfileReport struct {
	// Work is the number of firings.
	Work int64
	// Span is the critical path length: the longest dependency chain.
	Span int64
	// Parallelism is Work/Span, the average parallelism available to an
	// ideal scheduler.
	Parallelism float64
	// PeakWidth is the largest number of firings at one dependency depth,
	// an upper bound on the useful worker count at any instant.
	PeakWidth int64
	// PerName counts firings per vertex/reaction name.
	PerName map[string]int64
	// Profile lists the firing count per depth level, index 0 = depth 1.
	Profile []int64
}

// Profile folds the firing DAG into its work/span report. A firing's depth
// is 1 + the deepest of its producers; one consuming only initial state is at
// depth 1.
func (s *Schedule) Profile() ProfileReport {
	r := ProfileReport{Work: int64(len(s.Steps)), PerName: make(map[string]int64)}
	depth := make([]int64, len(s.Steps))
	for i, srcs := range s.Sources() {
		depth[i] = 1
		for _, src := range srcs {
			if src.Step >= 0 {
				depth[i] = max(depth[i], depth[src.Step]+1)
			}
		}
		if depth[i] > r.Span { // a step is at most one deeper than any before it
			r.Span, r.Profile = depth[i], append(r.Profile, 0)
		}
		r.Profile[depth[i]-1]++
		r.PerName[s.Steps[i].Name]++
	}
	for _, n := range r.Profile {
		r.PeakWidth = max(r.PeakWidth, n)
	}
	if r.Span > 0 {
		r.Parallelism = float64(r.Work) / float64(r.Span)
	}
	return r
}

func (r ProfileReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "work=%d span=%d parallelism=%.2f peak=%d", r.Work, r.Span, r.Parallelism, r.PeakWidth)
	if len(r.PerName) > 0 {
		names := make([]string, 0, len(r.PerName))
		for n := range r.PerName {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString(" [")
		for i, n := range names {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s:%d", n, r.PerName[n])
		}
		b.WriteString("]")
	}
	return b.String()
}

// WriteDOT renders the firing DAG as Graphviz DOT: initial elements (one box
// per distinct key) and unconsumed products as boxes, firings as ellipses,
// dependencies as edges, all in schedule order. On the Fig. 1 program a Γ
// run renders as the paper's Fig. 1 dataflow graph. Box labels follow the
// kind: a Γ key prints as its tuple (multiset.PrettyKey), a dataflow
// edge@tag key as is.
func (s *Schedule) WriteDOT(w io.Writer) error {
	label := func(key string) string { return key }
	if s.Kind == KindGamma {
		label = multiset.PrettyKey
	}
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`)
	var nodes, edges strings.Builder
	box := func(id string, n int, fill, key string) {
		fmt.Fprintf(&nodes, "  %s%d [shape=box, style=filled, fillcolor=\"%s\", label=\"%s\"];\n", id, n, fill, esc.Replace(label(key)))
	}
	inputs := make(map[string]int)
	consumed := make(map[Source]bool)
	for i, srcs := range s.Sources() {
		for j, src := range srcs {
			if src.Step >= 0 {
				consumed[src] = true
				fmt.Fprintf(&edges, "  f%d -> f%d;\n", src.Step, i)
				continue
			}
			key := s.Steps[i].Consumed[j]
			in, ok := inputs[key]
			if !ok {
				in = len(inputs)
				inputs[key] = in
				box("i", in, "#e8f0fe", key)
			}
			fmt.Fprintf(&edges, "  i%d -> f%d;\n", in, i)
		}
	}
	for i := range s.Steps {
		fmt.Fprintf(&nodes, "  f%d [shape=ellipse, label=\"%s\"];\n", i, esc.Replace(s.Steps[i].Name))
	}
	outs := 0
	for i := range s.Steps {
		for j, key := range s.Steps[i].Produced {
			if !consumed[Source{Step: i, Slot: j}] {
				box("o", outs, "#e6f4ea", key)
				fmt.Fprintf(&edges, "  f%d -> o%d;\n", i, outs)
				outs++
			}
		}
	}
	_, err := io.WriteString(w, "digraph provenance {\n  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n"+
		nodes.String()+edges.String()+"}\n")
	return err
}
