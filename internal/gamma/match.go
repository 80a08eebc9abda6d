package gamma

import (
	"math/rand"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// Match is one enabled application of a reaction: the concrete elements
// chosen from the multiset, the variable bindings they induce, and the branch
// that fired. Chosen holds the elements' own cells, as Ref.Tuple does: valid
// until the commit after the one that consumes them. Env is the kernel's slot
// environment, read through Reaction.Compile (an invalid Value is unbound).
type Match struct {
	Chosen []multiset.Tuple
	Env    []value.Value
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
// bindings in a slot-indexed environment. Patterns that name their labels
// (patternLabels: the shapes Algorithm 1 emits) draw candidates from the
// multiset's label lists or (label, tag) buckets, so converted dataflow
// programs match in near-constant time; fully generic patterns walk the
// whole multiset.
//
// Every search enumerates through one multiset.View session — a read session
// per FindMatch, or the write session of runSequential:
// the live chunked indexes are walked in place — no snapshot, no per-probe
// sort, each candidate arriving as a handle (multiset.Ref) — so a probe
// costs only the candidates it actually visits, whatever the multiset's size
// and whatever earlier probes did. Only the starting rotation differs by mode:
// 0 (ascending key order) for labeled patterns and a size-derived rotation for
// label-free ones under the deterministic matcher, one rng draw per search
// for seeded runs and the parts of a parallel one (see eachCandidate).
//
// FindMatch probes on scratch of its own (probe) and hands its chosen tuples
// and slot environment over; the step loop in run.go probes on the worker's
// searchers and keeps them in place.
func FindMatch(r *Reaction, m *multiset.Multiset, rng *rand.Rand) (*Match, error) {
	s := newSearcher(r, new(multiset.View))
	if !s.probe(m, rng) {
		return nil, s.err
	}
	return &Match{Chosen: s.chosen, Env: s.env, Branch: s.branch}, nil
}

// probe runs one search of m under a read session of the searcher's own,
// released on every exit path, a panic out of a reaction condition included,
// and reports whether it found an enabled firing (s.err says whether a
// condition failed).
func (s *searcher) probe(m *multiset.Multiset, rng *rand.Rand) bool {
	s.begin(m, rng)
	m.LockRead(s.view)
	defer s.view.Unlock()
	return s.search(0)
}

// searcher is the reusable scratch of one reaction's match searches, owned by
// one worker (newSearcher, begin). A search that succeeds leaves the enabled
// firing in it: slot env, chosen tuples, their handles (refs), branch; one
// that fails says in err whether a condition failed.
type searcher struct {
	k    *kernel
	r    *Reaction
	rng  *rand.Rand
	view *multiset.View // the session candidates are enumerated through: the owning worker's, or probe's own
	rot  uint64         // enumeration rotation of the current search; see eachCandidate
	env  []value.Value  // slot-indexed bindings; invalid Value = unbound
	// claims is the claim tracker: the handle of every occurrence the search
	// holds, as a stack. A candidate is exhausted once it appears there as
	// often as its multiplicity. Backtracking pops exactly what it pushed, so
	// lookup, undo and reset all cost O(live claims) — at most the arity, the
	// stack's fixed capacity — and nothing a probe scans past is ever recorded.
	// A successful search leaves the chosen tuples' handles in pattern order.
	claims  []multiset.Ref
	chosen  []multiset.Tuple
	branch  int
	err     error
	visited int64 // candidates handed to the match callback (Stats.Candidates)
}

// refs returns the handle of each chosen tuple of the search that just
// succeeded, in pattern order.
func (s *searcher) refs() []multiset.Ref { return s.claims }

// claimed counts the occurrences of c's element the search already holds:
// handles that are the Same, whatever slot each walk met the entry at — one
// entry reached through its label's list and through a tag bucket in one
// search is one element.
func (s *searcher) claimed(c multiset.Ref) int {
	n := 0
	for _, have := range s.claims {
		if have.Same(c) {
			n++
		}
	}
	return n
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
	s.eachCandidate(kp, func(c multiset.Ref) bool {
		s.visited++
		if s.claimed(c) >= c.Count() {
			return true // all occurrences already claimed by earlier patterns
		}
		t := c.Tuple()
		if !kp.match(t, s.env) {
			return true
		}
		s.claims = append(s.claims, c)
		s.chosen[i] = t
		if s.search(i + 1) {
			found = true
			return false
		}
		s.claims = s.claims[:len(s.claims)-1]
		kp.clear(s.env)
		return s.err == nil
	})
	return found
}

// eachCandidate enumerates the possible elements for pattern kp under the
// current bindings, using the narrowest index available, until fn returns
// false. Every mode walks the live indexes through the probe's view from a
// rotated start and receives candidates as handles. A pattern with several
// labels (a narrowed label variable) walks their indexes one after another.
//
// One rotation serves all nesting levels of a search. Seeded searches (the
// parts of a parallel run always are) draw it from their rng, so enumeration
// starts at a random position and wraps — the model's nondeterministic
// selection. The deterministic matcher walks
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
func (s *searcher) eachCandidate(kp *kpat, fn func(multiset.Ref) bool) {
	if len(kp.labels) == 0 {
		s.view.EachAll(s.rot, fn)
		return
	}
	rot := s.rot
	if s.rng == nil {
		rot = 0
	}
	tag, tagged := s.tagOf(kp)
	for _, sym := range kp.labels {
		if tagged && !s.view.EachSymTag(sym, tag, rot, fn) || !tagged && !s.view.EachSym(sym, rot, fn) {
			return
		}
	}
}

// detRotation maps a multiset size to an enumeration rotation via a
// splitmix64 finalizer round: consecutive sizes land on well-scattered
// rotations, so a shrinking (or growing) multiset keeps moving the probe's
// starting chunk and offset.
func detRotation(n int) uint64 {
	z := uint64(n) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tagOf resolves the tag bucket for kp's enumeration, per the kernel's static
// plan: a literal tag always, a tag variable only when an earlier pattern
// bound its slot to a value with a bucket (multiset.IndexTag) — the common
// case for Algorithm 1 output, where all patterns share the tag variable and
// the first match pins it. The bucket is a superset; kpat.match decides.
func (s *searcher) tagOf(kp *kpat) (int64, bool) {
	switch kp.tagMode {
	case tagLit:
		return kp.tagLit, true
	case tagSlot:
		return multiset.IndexTag(s.env[kp.tagSlot])
	}
	return 0, false
}

// patternLabels returns the labels an element must carry one of to match p in
// r, nil when any element might (a generic pattern). Two shapes qualify, both
// Algorithm 1's: a literal string in the label position (field 1), and a
// label variable that every branch condition restricts by nothing but an
// or-chain of `var == 'literal'` — the inctag listing,
//
//	replace [id1, x1, v] by [id1, 's_d5', v + 1] if x1 == 's_bk22' or x1 == 's_in1'
//
// Such a condition cannot fail to evaluate and is false for any other label,
// so skipping other elements is unobservable; an else branch or any other
// operator leaves the pattern generic. The kernel's enumeration plan and the
// scheduler's subscriptions both come from here.
func patternLabels(r *Reaction, p Pattern) []string {
	if len(p) < 2 {
		return nil
	}
	if p[1].Var == "" {
		if p[1].Lit.Kind() == value.KindString {
			return []string{p[1].Lit.AsString()}
		}
		return nil
	}
	var labels []string
	for _, b := range r.Branches {
		if b.Cond == nil || !labelChain(b.Cond, p[1].Var, &labels) {
			return nil
		}
	}
	return labels
}

// labelChain reports whether e is an or-chain of `name == 'literal'` and
// nothing else, appending the literals to labels.
func labelChain(e expr.Expr, name string, labels *[]string) bool {
	b, ok := e.(expr.Binary)
	if !ok {
		return false
	}
	if b.Op == "or" || b.Op == "||" {
		return labelChain(b.L, name, labels) && labelChain(b.R, name, labels)
	}
	v, isVar := b.L.(expr.Var)
	l, isLit := b.R.(expr.Lit)
	if b.Op != "==" || !isVar || !isLit || v.Name != name || l.Val.Kind() != value.KindString {
		return false
	}
	*labels = append(*labels, l.Val.AsString())
	return true
}

// Enabled reports whether any reaction of p has an enabled match on m — the
// negation of Eq. 1's termination test (∀i ∀x ¬Ri(x...)). Each reaction is
// probed once on a searcher; no Match is built.
func Enabled(p *Program, m *multiset.Multiset) (bool, error) {
	var v multiset.View
	for _, r := range p.Reactions {
		s := newSearcher(r, &v)
		if s.probe(m, nil) {
			return true, nil
		}
		if s.err != nil {
			return false, s.err
		}
	}
	return false, nil
}
