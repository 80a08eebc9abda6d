package gamma

import (
	"math/rand"
	"testing"

	"repro/internal/multiset"
)

// CheckCommits makes every commit of every run started in t verify the
// storage invariants of the multiset committed to — a part, in a parallel run
// — through the afterCommit hook: from inside the interpreter's write session,
// which already holds every lock the walk needs. Not for parallel tests: the
// hook is one package variable.
func CheckCommits(t testing.TB) {
	afterCommit = func(w *worker) {
		if err := w.view.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	t.Cleanup(func() { afterCommit = nil })
}

// Generic reports, for TestAlg1ImageShape in the external test package, how
// many reactions of p the scheduler wakes on every commit (the wildcard
// bucket) and how many kernels walk the whole multiset for some pattern.
func Generic(p *Program) (wildcard, generic int) {
	for _, r := range p.Reactions {
		if r.kernel().generic {
			generic++
		}
	}
	return len(p.subs().wildcard), generic
}

// RaceEnabled lets the external test package skip allocation counts under
// the race detector.
const RaceEnabled = raceEnabled

// probe runs one search of m under a read session of the searcher's own, the
// way FindMatch does, and reports whether it found an enabled firing.
func (s *searcher) probe(m *multiset.Multiset, rng *rand.Rand) bool {
	s.begin(m, rng)
	m.LockRead(s.view)
	defer s.view.Unlock()
	return s.search(0)
}

// CountValidations counts, until t ends, the walks of Validate on each
// reaction. Not for parallel tests: the hook is one package variable.
func CountValidations(t testing.TB) map[*Reaction]int {
	walks := make(map[*Reaction]int)
	validated = func(r *Reaction) { walks[r]++ }
	t.Cleanup(func() { validated = nil })
	return walks
}
