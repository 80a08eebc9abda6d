package replay

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/rt"
	"repro/internal/value"
)

// DataflowResult is the outcome of replaying a dataflow schedule.
type DataflowResult struct {
	// Steps replayed successfully before divergence.
	Steps int
	// Outputs collects the values the replay emitted on terminal edges,
	// keyed by edge label and sorted by tag — comparable to
	// dataflow.Result.Outputs from the recorded run.
	Outputs map[string][]dataflow.TaggedValue
	// Pending counts tokens still waiting on edges after the last step —
	// the replay analogue of dataflow.Result.Pending.
	Pending int
	// Stable reports whether no vertex has a complete operand set for any
	// tag among the leftover tokens. Only computed when Divergence is nil.
	Stable bool
	// Divergence is non-nil when some step could not be reproduced.
	Divergence *Divergence
}

// Output returns the last value the replay emitted on a terminal edge,
// mirroring dataflow.Result.Output.
func (r *DataflowResult) Output(label string) (value.Value, bool) {
	vs := r.Outputs[label]
	if len(vs) == 0 {
		return value.Value{}, false
	}
	return vs[len(vs)-1].Val, true
}

// ReplayDataflow re-executes a recorded dataflow schedule step for step
// against graph g: each step pops its consumed tokens (by key, FIFO) from
// the in-flight pool, re-fires the named vertex on their values, and checks
// the emitted tokens' keys against the recording. Token keys name an edge
// and a tag but not a value, so — unlike gamma replay, which verifies full
// element fingerprints — value divergence surfaces either downstream as a
// missing/extra firing or in the returned Outputs; structural divergence
// (different firings, different edges, different tags) is caught at the
// first divergent step.
//
// Errors are reserved for unusable inputs (wrong schedule kind, malformed
// keys); divergences are results, not errors.
func ReplayDataflow(g *dataflow.Graph, s *Schedule) (*DataflowResult, error) {
	if s.Kind != KindDataflow {
		return nil, rt.Mark(rt.ErrInvalid, fmt.Errorf("replay: schedule kind %q cannot replay a dataflow graph", s.Kind))
	}
	if err := g.Validate(); err != nil {
		return nil, rt.Mark(rt.ErrInvalid, err)
	}
	res := &DataflowResult{Outputs: make(map[string][]dataflow.TaggedValue)}
	// avail holds the values in flight on each (edge, tag) key in production
	// order; the schedule's linearization makes FIFO per key exactly the
	// order the recorded run's matching stores saw.
	avail := make(map[string][]value.Value)
	// One index for all steps; Validate has made the names unique.
	byName := make(map[string]*dataflow.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	for i := range s.Steps {
		st := &s.Steps[i]
		div, err := replayDataflowStep(g, byName[st.Name], s, i, st, avail, res)
		if err != nil {
			return nil, err
		}
		if div != nil {
			res.Divergence = div
			return res, nil
		}
		res.Steps++
	}
	for _, vs := range res.Outputs {
		sort.SliceStable(vs, func(i, j int) bool { return vs[i].Tag < vs[j].Tag })
	}
	res.Pending, res.Stable = dataflowQuiescence(g, avail)
	return res, nil
}

func replayDataflowStep(g *dataflow.Graph, n *dataflow.Node, s *Schedule, idx int, st *Step, avail map[string][]value.Value, res *DataflowResult) (*Divergence, error) {
	if n == nil {
		detail := fmt.Sprintf("graph %s has no vertex %s", g.Name, st.Name)
		return s.diverged(idx, Divergence{Reason: ReasonUnknownNode, Detail: detail}), nil
	}
	// Pop the consumed tokens. Keys are recorded in input-port order, so the
	// popped values form the operand vector positionally: one per input port,
	// key j on an edge into port j, or no engine could have fired the step.
	if len(st.Consumed) != len(n.In) {
		detail := fmt.Sprintf("vertex %s takes %d operands, the step consumed %d", n.Name, len(n.In), len(st.Consumed))
		return s.diverged(idx, Divergence{Reason: ReasonKernelError, Detail: detail}), nil
	}
	var tag int64
	operands := make([]value.Value, len(st.Consumed))
	for j, key := range st.Consumed {
		kTag, err := keyTag(key)
		if err != nil {
			return nil, err
		}
		if !intoPort(g, n.In[j], key[:strings.LastIndexByte(key, '@')]) {
			detail := fmt.Sprintf("consumed %s is not on an edge into port %d of vertex %s", key, j, n.Name)
			return s.diverged(idx, Divergence{Reason: ReasonKernelError, Detail: detail}), nil
		}
		if j == 0 {
			tag = kTag
		}
		q := avail[key]
		if len(q) == 0 {
			return s.diverged(idx, Divergence{Reason: ReasonConsumedMissing, Missing: []string{key}}), nil
		}
		operands[j], avail[key] = q[0], q[1:]
	}
	out, err := dataflow.ReplayFire(g, n, tag, operands)
	if err != nil {
		return s.diverged(idx, Divergence{Reason: ReasonKernelError, Detail: err.Error()}), nil
	}
	actual := make([]string, len(out))
	var kb [64]byte
	for j, t := range out {
		actual[j] = string(dataflow.AppendTokenKey(kb[:0], g, t.Edge, t.Tag))
	}
	if expected := sortedKeys(st.Produced); !keysEqual(expected, sortedKeys(actual)) {
		mismatch := Divergence{Reason: ReasonProductMismatch, Expected: expected, Actual: sortedKeys(actual)}
		return s.diverged(idx, mismatch), nil
	}
	for j, t := range out {
		e := g.Edges[t.Edge]
		if e.To == dataflow.NoNode {
			res.Outputs[e.Label] = append(res.Outputs[e.Label], dataflow.TaggedValue{Tag: t.Tag, Val: t.Val})
			continue
		}
		avail[actual[j]] = append(avail[actual[j]], t.Val)
	}
	return nil, nil
}

// intoPort reports whether one of a port's in-edges carries the label.
func intoPort(g *dataflow.Graph, port []dataflow.EdgeID, label string) bool {
	for _, e := range port {
		if g.Edges[e].Label == label {
			return true
		}
	}
	return false
}

// keyTag extracts the iteration tag from a "label@tag" token key.
func keyTag(key string) (int64, error) {
	at := strings.LastIndexByte(key, '@')
	if at < 0 {
		return 0, rt.Mark(rt.ErrParse, fmt.Errorf("replay: token key %q has no tag", key))
	}
	tag, err := strconv.ParseInt(key[at+1:], 10, 64)
	if err != nil {
		return 0, rt.Mark(rt.ErrParse, fmt.Errorf("replay: token key %q: %w", key, err))
	}
	return tag, nil
}

// dataflowQuiescence inspects the leftover in-flight tokens: the total count
// (Pending) and whether any vertex has a token on every input port for some
// single tag — if so the replayed state is not stable (the recorded run
// stopped early, e.g. a canceled run's committed prefix).
func dataflowQuiescence(g *dataflow.Graph, avail map[string][]value.Value) (pending int, stable bool) {
	type nodeTag struct {
		node dataflow.NodeID
		tag  int64
	}
	covered := make(map[nodeTag]uint) // bit i: input port i holds a token
	for key, q := range avail {
		if len(q) == 0 {
			continue
		}
		pending += len(q)
		tag, err := keyTag(key)
		if err != nil {
			continue
		}
		e := g.EdgeByLabel(key[:strings.LastIndexByte(key, '@')])
		if e == nil || e.To == dataflow.NoNode {
			continue
		}
		covered[nodeTag{node: e.To, tag: tag}] |= 1 << e.ToPort
	}
	for nt, ports := range covered {
		if bits.OnesCount(ports) == g.Nodes[nt.node].InArity() {
			return pending, false
		}
	}
	return pending, true
}
