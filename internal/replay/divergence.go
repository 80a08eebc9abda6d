package replay

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/multiset"
)

// Divergence reasons. A divergence is not an error in the replay machinery:
// it is the finding — the first step at which the present program, replayed
// over the recorded schedule, stops reproducing the recorded execution.
const (
	// ReasonUnknownReaction — the schedule names a reaction the program
	// does not contain (program edited since recording).
	ReasonUnknownReaction = "unknown-reaction"
	// ReasonUnknownNode — the dataflow analogue: no vertex with the
	// recorded name.
	ReasonUnknownNode = "unknown-node"
	// ReasonConsumedMissing — elements/tokens the recorded firing consumed
	// are not present at this point of the replay (an earlier divergence in
	// state, or a spliced schedule).
	ReasonConsumedMissing = "consumed-missing"
	// ReasonKernelError — re-executing the firing failed: the recorded
	// elements no longer match the reaction's patterns, no branch is
	// enabled, or the kernel returned an error.
	ReasonKernelError = "kernel-error"
	// ReasonProductMismatch — the kernel fired but produced a different
	// multiset of elements than the recording.
	ReasonProductMismatch = "product-mismatch"
)

// Divergence pinpoints the first schedule step the replay could not
// reproduce. Expected/Actual are sorted key multisets of the recorded vs.
// re-executed products; Missing lists consumed keys absent from the replay
// state; Ancestors are the schedule steps (1-based) whose products the
// divergent firing transitively consumed — the provenance slice to inspect
// when diagnosing where replayed state first drifted.
type Divergence struct {
	Step      int      `json:"step"`
	Seq       uint64   `json:"seq,omitempty"`
	Name      string   `json:"name"`
	Reason    string   `json:"reason"`
	Missing   []string `json:"missing,omitempty"`
	Expected  []string `json:"expected,omitempty"`
	Actual    []string `json:"actual,omitempty"`
	Ancestors []int    `json:"ancestors,omitempty"`
	Detail    string   `json:"detail,omitempty"`
}

// diverged completes d, the finding at step index idx (0-based), with the
// step's identity and its ancestors.
func (s *Schedule) diverged(idx int, d Divergence) *Divergence {
	st := &s.Steps[idx]
	d.Step, d.Seq, d.Name, d.Ancestors = st.Step, st.Seq, st.Name, ancestors(s, idx)
	return &d
}

// String renders a one-paragraph human-readable report.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay diverged at step %d (%s): %s", d.Step, d.Name, d.Reason)
	if d.Detail != "" {
		fmt.Fprintf(&b, ": %s", d.Detail)
	}
	if len(d.Missing) > 0 {
		fmt.Fprintf(&b, "\n  missing: %s", prettyKeys(d.Missing))
	}
	if len(d.Expected) > 0 || len(d.Actual) > 0 {
		fmt.Fprintf(&b, "\n  expected products: %s\n  actual products:   %s",
			prettyKeys(d.Expected), prettyKeys(d.Actual))
	}
	if len(d.Ancestors) > 0 {
		fmt.Fprintf(&b, "\n  ancestor steps: %v", d.Ancestors)
	}
	return b.String()
}

func prettyKeys(keys []string) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = multiset.PrettyKey(k)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ancestors collects the steps whose products the firing at step index idx
// (0-based) transitively consumed, walking the firing DAG (Sources) of the
// schedule's prefix up to idx. Returns 1-based step numbers, sorted. Keys from
// the initial state contribute nothing. The walk keeps its own stack, so a
// divergent schedule of S steps costs O(S) however deep its dependency chain
// (gammad replays schedules it is sent).
func ancestors(s *Schedule, idx int) []int {
	srcs := (&Schedule{Steps: s.Steps[:idx+1]}).Sources()
	seen := make([]bool, idx+1)
	var out []int
	for stack := []int{idx}; len(stack) > 0; {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, src := range srcs[i] {
			if j := src.Step; j >= 0 && !seen[j] {
				seen[j] = true
				out, stack = append(out, s.Steps[j].Step), append(stack, j)
			}
		}
	}
	sort.Ints(out)
	return out
}

// sortedKeys returns a sorted copy, the canonical multiset-of-keys form the
// product comparison uses.
func sortedKeys(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// keysEqual reports whether two key multisets are equal after sorting.
func keysEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
