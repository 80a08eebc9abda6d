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
// Every search enumerates through one multiset.View read session, opened once
// per probe (findFiring) or once per probe batch (the pool's tryFireBatch):
// the live chunked indexes are walked in place — no snapshot, no per-probe
// sort, each candidate arriving with its cached Key() fingerprint — so a probe
// costs only the candidates it actually visits, whatever the multiset's size
// and whatever earlier probes did. Only the starting rotation differs by mode:
// 0 (ascending key order) for labeled patterns and a size-derived rotation for
// label-free ones under the deterministic matcher, one rng draw per search
// for seeded and pool runs (see eachCandidate). Staleness under concurrent
// writers is caught by the optimistic commit.
//
// FindMatch materializes the bindings into a MapEnv for its callers (tests,
// Enabled, the dataflow equivalence checker); the step loop in run.go uses
// findFiring to keep the pooled slot environment instead.
func FindMatch(r *Reaction, m *multiset.Multiset, rng *rand.Rand) (*Match, error) {
	k := r.kernel()
	var visited int64
	s, err := findFiring(r, m, rng, &visited)
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
// done reading it. The candidates the probe visited are added to *visited.
func findFiring(r *Reaction, m *multiset.Multiset, rng *rand.Rand, visited *int64) (*searcher, error) {
	k := r.kernel()
	s := k.getSearcher(r, m, rng)
	ok := s.probe(m)
	*visited += s.visited
	if s.err != nil || !ok {
		err := s.err
		k.putSearcher(s)
		return nil, err
	}
	return s, nil
}

// probe runs one search under its own read session: the shards the reaction's
// patterns can enumerate are read-locked once, for all nesting levels, and
// released on every exit path — including a panic out of a reaction condition,
// which the sequential engine recovers into an error; a read lock that
// outlived its probe would block every later writer.
func (s *searcher) probe(m *multiset.Multiset) bool {
	m.LockView(&s.view, s.k.viewSyms, s.k.viewAll)
	defer s.view.Unlock()
	return s.search(0)
}

// searcher is the recycled scratch of one match search; see kernel.getSearcher.
type searcher struct {
	k    *kernel
	r    *Reaction
	rng  *rand.Rand
	view multiset.View // the read session candidates are enumerated through
	rot  uint64        // enumeration rotation of the current search; see eachCandidate
	env  []value.Value // slot-indexed bindings; invalid Value = unbound
	// claims is the claim tracker: the key of every occurrence the search
	// holds, as a stack. A candidate is exhausted once it appears there as
	// often as its multiplicity. Backtracking pops exactly what it pushed, so
	// lookup, undo and reset all cost O(live claims) — at most arity ×
	// batchMaxFirings, the stack's fixed capacity — and nothing a probe scans
	// past is ever recorded. The top len(pats) entries of a successful search
	// are the chosen tuples' keys in pattern order (see keys).
	claims  []string
	chosen  []multiset.Tuple
	branch  int
	err     error
	visited int64 // candidates handed to the match callback (Stats.Candidates)
}

// keys returns the cached Key() of each chosen tuple of the search that just
// succeeded, in pattern order.
func (s *searcher) keys() []string {
	return s.claims[len(s.claims)-len(s.chosen):]
}

// claimed counts the occurrences of key the search already holds.
func (s *searcher) claimed(key string) int {
	n := 0
	for _, c := range s.claims {
		if c == key {
			n++
		}
	}
	return n
}

// nextInBatch readies the searcher for the next search of a multi-firing
// batch: the slot environment is cleared but the claim tracker is kept, so
// the occurrences chosen by the batch's earlier (not yet committed) firings
// stay claimed — that is what makes the batch's deltas pairwise disjoint and
// the single ApplyDeltas commit equivalent to firing them one by one. The
// caller must copy chosen/keys out before calling; the next search overwrites
// chosen and stacks its keys above the kept ones. Batches are the pool's, so
// the next search draws its own rotation from the worker's rng.
func (s *searcher) nextInBatch() {
	for i := range s.env {
		s.env[i] = value.Value{}
	}
	s.rot = s.rng.Uint64()
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
		s.visited++
		if s.claimed(key) >= n {
			return true // all occurrences already claimed by earlier patterns
		}
		if !kp.match(t, s.env) {
			return true
		}
		s.claims = append(s.claims, key)
		s.chosen[i] = t
		if s.search(i + 1) {
			found = true
			return false
		}
		top := len(s.claims) - 1
		s.claims[top] = ""
		s.claims = s.claims[:top]
		kp.clear(s.env)
		return s.err == nil
	})
	return found
}

// eachCandidate enumerates the possible elements for pattern kp under the
// current bindings, using the narrowest index available, until fn returns
// false. Every mode walks the live indexes through the probe's view from a
// rotated start; every candidate carries the multiset's cached key
// fingerprint.
//
// One rotation serves all nesting levels of a search. Seeded and pool
// searches draw it from their rng, so enumeration starts at a random position
// and wraps — the model's nondeterministic selection, and what decorrelates
// concurrent searchers without copying. The deterministic matcher walks
// labeled indexes from rotation 0, which is exactly ascending key order, and
// label-free patterns from a rotation derived from the multiset's size:
// starting every whole-multiset probe at the global lex-first key is an
// adversarial trap — if that element never matches (e.g. computing min over
// values whose numeric maximum sorts lexicographically first), each probe
// re-rejects the same prefix and the run degrades to O(n) per step — so the
// start is deterministic for a given state but moves as the run progresses.
//
// Sharing the rotation between levels is what keeps a label-free search
// local: the walk for y starts at x's own position, among x's neighbours in
// key order, which are as likely to satisfy a condition against x as not.
// Drawing a fresh position per level instead pairs x with a uniformly placed
// y — and positions are uniform over index chunks, not elements, so a
// reduction like Eq. 2, which thins out the large values first, keeps binding
// x in a sparse chunk of near-maxima that almost no y can follow
// (TestLabelFreeScaling measured 280 candidates per step at n=2¹⁷ that way,
// growing with n, against 7 with the shared rotation).
func (s *searcher) eachCandidate(kp *kpat, fn func(t multiset.Tuple, n int, key string) bool) {
	if !kp.hasLabel {
		s.view.EachAll(s.rot, fn)
		return
	}
	rot := s.rot
	if s.rng == nil {
		rot = 0
	}
	if tag, ok := s.tagOf(kp); ok {
		s.view.EachSymTag(kp.labelSym, tag, rot, fn)
	} else {
		s.view.EachSym(kp.labelSym, rot, fn)
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
