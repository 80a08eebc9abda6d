package gamma

import (
	"math/rand"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// Match is one enabled application of a reaction: the concrete elements
// chosen from the multiset, the variable bindings they induce, and the branch
// that fired.
type Match struct {
	Chosen []multiset.Tuple
	Env    expr.MapEnv
	Branch int
}

// FindMatch searches m for an enabled match of r. It returns nil when the
// reaction is not enabled on m (no combination of elements satisfies the
// patterns and some branch condition). When rng is non-nil, candidate order
// is randomized — the nondeterministic selection of §II-B; with a nil rng the
// search is deterministic (ascending key order), which the sequential
// interpreter and the tests rely on.
//
// The search runs on the reaction's compiled kernel (kernel.go): a
// backtracking enumeration over the replace-list patterns with variable
// bindings in a slot-indexed environment. Patterns whose label field is a
// literal (the shape Algorithm 1 always emits) draw candidates from the
// multiset's interned label or (label, tag) index, so converted dataflow
// programs match in near-constant time; fully generic patterns walk the
// whole multiset.
//
// The deterministic path iterates the multiset's incrementally sorted indexes
// in place — no snapshot, no per-probe sort, and each candidate arrives with
// its cached Key() fingerprint — so a probe costs only the candidates it
// actually visits. That requires no concurrent writers, which the sequential
// runtime guarantees. The randomized path (seeded sequential runs) copies the
// candidates and shuffles them; the parallel runtime instead walks a locked
// shard view from a random rotation (see eachCandidate), with staleness
// caught by the optimistic commit.
//
// FindMatch materializes the bindings into a MapEnv for its callers (tests,
// Enabled, the dataflow equivalence checker); the step loop in run.go uses
// findFiring to keep the pooled slot environment instead.
func FindMatch(r *Reaction, m *multiset.Multiset, rng *rand.Rand) (*Match, error) {
	k := r.kernel()
	s, err := findFiring(r, m, rng)
	if err != nil || s == nil {
		return nil, err
	}
	defer k.putSearcher(s)
	env := make(expr.MapEnv, len(k.varOf))
	for slot, name := range k.varOf {
		if v := s.env[slot]; v.IsValid() {
			env[name] = v
		}
	}
	chosen := make([]multiset.Tuple, len(s.chosen))
	copy(chosen, s.chosen)
	return &Match{Chosen: chosen, Env: env, Branch: s.branch}, nil
}

// findFiring is the allocation-free core of FindMatch: it returns a pooled
// searcher holding an enabled firing (slot env, chosen tuples with their
// cached keys, selected branch), or nil when the reaction is not enabled.
// The caller must release a non-nil searcher via r.kernel().putSearcher once
// done reading it.
func findFiring(r *Reaction, m *multiset.Multiset, rng *rand.Rand) (*searcher, error) {
	k := r.kernel()
	s := k.getSearcher(r, m, rng)
	ok := s.search(0)
	if s.err != nil || !ok {
		err := s.err
		k.putSearcher(s)
		return nil, err
	}
	return s, nil
}

// searcher is the recycled scratch of one match search; see kernel.getSearcher.
type searcher struct {
	k      *kernel
	r      *Reaction
	m      *multiset.Multiset
	rng    *rand.Rand
	view   *multiset.View // when set, candidates come from the locked view
	det    uint64         // rotation for deterministic generic-pattern probes
	env    []value.Value  // slot-indexed bindings; invalid Value = unbound
	used   map[string]int // occurrences of each tuple key already claimed
	chosen []multiset.Tuple
	keys   []string // cached Key() of each chosen tuple
	branch int
	err    error
}

// nextInBatch readies the searcher for the next search of a multi-firing
// batch: the slot environment is cleared but the claim tracker is kept, so
// the occurrences chosen by the batch's earlier (not yet committed) firings
// stay claimed — that is what makes the batch's deltas pairwise disjoint and
// the single ApplyDeltas commit equivalent to firing them one by one. The
// caller must copy chosen/keys out before calling; the next search overwrites
// them.
func (s *searcher) nextInBatch() {
	for i := range s.env {
		s.env[i] = value.Value{}
	}
}

func (s *searcher) search(i int) bool {
	if i == len(s.k.pats) {
		idx, err := s.k.selectBranch(s.r.Name, s.env)
		if err != nil {
			s.err = err
			return false
		}
		if idx < 0 {
			return false // binding found but no branch enabled; backtrack
		}
		s.branch = idx
		return true
	}
	kp := &s.k.pats[i]
	found := false
	s.eachCandidate(kp, func(t multiset.Tuple, n int, key string) bool {
		if s.used[key] >= n {
			return true // all occurrences already claimed by earlier patterns
		}
		if !kp.match(t, s.env) {
			return true
		}
		s.used[key]++
		s.chosen[i] = t
		s.keys[i] = key
		if s.search(i + 1) {
			found = true
			return false
		}
		s.used[key]--
		kp.clear(s.env)
		return s.err == nil
	})
	return found
}

// eachCandidate enumerates the possible elements for pattern kp under the
// current bindings, using the narrowest index available, until fn returns
// false. Deterministic searches iterate the live sorted indexes; randomized
// searches snapshot and shuffle. Every candidate carries the multiset's
// cached key fingerprint.
func (s *searcher) eachCandidate(kp *kpat, fn func(t multiset.Tuple, n int, key string) bool) {
	if s.view != nil {
		// View-backed path (parallel batch matcher): the shard read locks are
		// held by the caller, so the live chunked indexes can be walked
		// zero-copy. A rotation drawn from the worker's rng replaces the
		// snapshot+shuffle — enumeration starts at a random position and
		// wraps, which decorrelates concurrent searchers without copying.
		rot := s.rng.Uint64()
		if kp.hasLabel {
			if tag, ok := s.tagOf(kp); ok {
				s.view.EachSymTag(kp.labelSym, tag, rot, fn)
			} else {
				s.view.EachSym(kp.labelSym, rot, fn)
			}
		} else {
			s.view.EachAll(rot, fn)
		}
		return
	}
	if s.rng == nil {
		switch {
		case kp.hasLabel:
			if tag, ok := s.tagOf(kp); ok {
				s.m.IterSymTag(kp.labelSym, tag, fn)
			} else {
				s.m.IterSym(kp.labelSym, fn)
			}
		default:
			// Generic patterns walk the whole multiset. Starting every probe
			// at the global lex-first key is an adversarial trap: if that
			// element never matches (e.g. computing min over values whose
			// numeric maximum sorts lexicographically first), each probe
			// re-rejects the same prefix and the run degrades to O(n) per
			// step. Rotate the start by a value derived from the multiset's
			// size instead — deterministic for a given state, so sequential
			// runs stay reproducible, but the hot spot moves as the run
			// progresses.
			s.m.IterAllRot(s.det, fn)
		}
		return
	}
	var cands []multiset.Counted
	if kp.hasLabel {
		if tag, ok := s.tagOf(kp); ok {
			cands = s.m.BySymTag(kp.labelSym, tag)
		} else {
			cands = s.m.BySym(kp.labelSym)
		}
	} else {
		cands = s.m.AllCounted()
	}
	s.rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	for _, c := range cands {
		if !fn(c.Tuple, c.N, c.Key) {
			return
		}
	}
}

// detRotation maps a multiset size to an enumeration rotation via a
// splitmix64 finalizer round: consecutive sizes land on well-scattered
// rotations, so a shrinking (or growing) multiset keeps moving the probe's
// starting shard and offset.
func detRotation(n int) uint64 {
	z := uint64(n) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tagOf resolves a concrete integer tag for kp's enumeration, per the
// kernel's static plan: a literal tag always, a tag variable only when an
// earlier pattern bound its slot to an int — the common case for Algorithm 1
// output, where all patterns share the tag variable and the first match pins
// it.
func (s *searcher) tagOf(kp *kpat) (int64, bool) {
	switch kp.tagMode {
	case tagLit:
		return kp.tagLit, true
	case tagSlot:
		if v := s.env[kp.tagSlot]; v.Kind() == value.KindInt {
			return v.AsInt(), true
		}
	}
	return 0, false
}

// patternLabel extracts a literal string in the label position (field 1).
func patternLabel(p Pattern) (string, bool) {
	if len(p) >= 2 && p[1].Var == "" && p[1].Lit.Kind() == value.KindString {
		return p[1].Lit.AsString(), true
	}
	return "", false
}

// Enabled reports whether any reaction of p has an enabled match on m — the
// negation of Eq. 1's termination test (∀i ∀x ¬Ri(x...)).
func Enabled(p *Program, m *multiset.Multiset) (bool, error) {
	for _, r := range p.Reactions {
		match, err := FindMatch(r, m, nil)
		if err != nil {
			return false, err
		}
		if match != nil {
			return true, nil
		}
	}
	return false, nil
}
