package replay

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// KeyTuple inverts multiset.Tuple.Key: the key is split into its fields
// (multiset.KeyFields), each field's leading kind byte is checked against the
// parsed value's kind, and the canonical string form is parsed back into a
// value. Every key an engine emits round-trips; keys from a corrupted
// schedule fail with rt.ErrParse.
func KeyTuple(key string) (multiset.Tuple, error) {
	parts, ok := multiset.KeyFields(key)
	if !ok {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: tuple key %q is empty or has an empty field", key))
	}
	t := make(multiset.Tuple, len(parts))
	for i, p := range parts {
		v, err := value.Parse(p[1:])
		if err != nil {
			return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: tuple key %q field %d: %w", key, i, err))
		}
		if byte('0'+v.Kind()) != p[0] {
			return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: tuple key %q field %d: kind byte %q does not match parsed %s", key, i, p[0], v.Kind()))
		}
		t[i] = v
	}
	return t, nil
}

// GammaResult is the outcome of replaying a gamma schedule.
type GammaResult struct {
	// Steps replayed successfully before divergence (== len(schedule) when
	// Divergence is nil).
	Steps int
	// Final is the multiset after the last successful step. On divergence
	// the consumed elements of the divergent step are restored, so Final is
	// the state just before that step.
	Final *multiset.Multiset
	// Stable reports whether no reaction is enabled on Final — for a full
	// clean replay, the replayed execution reached the recording's stable
	// state (Eq. 1). Only computed when Divergence is nil.
	Stable bool
	// Divergence is non-nil when some step could not be reproduced.
	Divergence *Divergence
}

// ReplayGamma re-executes a recorded gamma schedule step for step against
// the initial multiset m (which is consumed: pass a Clone to keep it). At
// each step it verifies the consumed elements exist, re-runs the named
// reaction's compiled kernel — the code the engines fired — on exactly those
// elements (gamma.Reaction.ReplayFiring), and verifies the products match the
// recording; the first failure stops the replay with a Divergence. A nil Divergence with Stable=true means the present program
// deterministically reproduces the recorded execution — the paper's
// firing-history equivalence, checked mechanically.
//
// Errors are reserved for unusable inputs (wrong schedule kind, unparsable
// keys, a failing stability check); divergences are results, not errors.
func ReplayGamma(p *gamma.Program, m *multiset.Multiset, s *Schedule) (*GammaResult, error) {
	if s.Kind != KindGamma {
		return nil, rt.Mark(rt.ErrInvalid, fmt.Errorf("replay: schedule kind %q cannot replay a gamma program", s.Kind))
	}
	res := &GammaResult{Final: m}
	for i := range s.Steps {
		st := &s.Steps[i]
		div := replayGammaStep(p, m, s, i, st)
		if div != nil {
			res.Divergence = div
			return res, nil
		}
		res.Steps++
	}
	enabled, err := gamma.Enabled(p, m)
	if err != nil {
		return nil, fmt.Errorf("replay: stability check: %w", err)
	}
	res.Stable = !enabled
	return res, nil
}

// replayGammaStep executes one schedule step, returning a Divergence when
// the step cannot be reproduced. On divergence the multiset is left in its
// pre-step state (claimed elements are restored).
func replayGammaStep(p *gamma.Program, m *multiset.Multiset, s *Schedule, idx int, st *Step) *Divergence {
	r := p.Reaction(st.Name)
	if r == nil {
		detail := fmt.Sprintf("program %s has no reaction %s", p.Name, st.Name)
		return s.diverged(idx, Divergence{Reason: ReasonUnknownReaction, Detail: detail})
	}
	chosen := make([]multiset.Tuple, len(st.Consumed))
	for j, key := range st.Consumed {
		t, err := KeyTuple(key)
		if err != nil {
			return s.diverged(idx, Divergence{Reason: ReasonKernelError, Detail: err.Error()})
		}
		chosen[j] = t
	}
	if !m.TryRemoveAll(chosen) {
		return s.diverged(idx, Divergence{Reason: ReasonConsumedMissing, Missing: missingFrom(m, chosen)})
	}
	products, err := r.ReplayFiring(chosen)
	if err != nil {
		m.AddAll(chosen)
		return s.diverged(idx, Divergence{Reason: ReasonKernelError, Detail: err.Error()})
	}
	actual := make([]string, len(products))
	for j, t := range products {
		actual[j] = t.Key()
	}
	actual = sortedKeys(actual)
	if expected := sortedKeys(st.Produced); !keysEqual(expected, actual) {
		m.AddAll(chosen)
		return s.diverged(idx, Divergence{Reason: ReasonProductMismatch, Expected: expected, Actual: actual})
	}
	m.AddAll(products)
	return nil
}

// missingFrom reports which of the tuples are not claimable from m,
// counting multiplicity: a step consuming [x,x] when only one x remains
// reports x once.
func missingFrom(m *multiset.Multiset, chosen []multiset.Tuple) []string {
	need := make(map[string]int)
	order := make([]string, 0, len(chosen))
	for _, t := range chosen {
		k := t.Key()
		if need[k] == 0 {
			order = append(order, k)
		}
		need[k]++
	}
	var missing []string
	for _, k := range order {
		t, err := KeyTuple(k)
		have := 0
		if err == nil {
			have = m.Count(t)
		}
		if have < need[k] {
			missing = append(missing, k)
		}
	}
	return missing
}
