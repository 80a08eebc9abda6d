package gamma

import (
	"testing"

	"repro/internal/multiset"
)

// CheckCommits makes every commit of every run started in t verify the
// multiset's storage invariants (the afterCommit hook). Not for parallel
// tests: the hook is one package variable.
func CheckCommits(t testing.TB) {
	afterCommit = func(m *multiset.Multiset) {
		if err := m.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	t.Cleanup(func() { afterCommit = nil })
}

// Generic reports, for TestAlg1ImageShape in the external test package, how
// many reactions of p the scheduler wakes on every commit (the wildcard
// bucket) and how many kernels must view every shard.
func Generic(p *Program) (wildcard, viewAll int) {
	for _, r := range p.Reactions {
		if r.kernel().viewAll {
			viewAll++
		}
	}
	return len(p.subs().wildcard), viewAll
}

// RaceEnabled lets the external test package skip allocation counts under
// the race detector.
const RaceEnabled = raceEnabled
