package gamma

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/symtab"
	"repro/internal/value"
)

// tournamentProgram is a K-stage pairwise min reduction over labeled
// elements — the "min-element-style" workload of the incremental-engine
// measurements. Stage i consumes two (x,'Li') elements and forwards the
// smaller as (x,'L<i+1>'): exactly the literal-label pattern shape
// Algorithm 1 emits, so every reaction subscribes to one label.
func tournamentProgram(stages int) *Program {
	rs := make([]*Reaction, stages)
	for i := 0; i < stages; i++ {
		in, out := fmt.Sprintf("L%d", i), fmt.Sprintf("L%d", i+1)
		rs[i] = &Reaction{
			Name:     fmt.Sprintf("R%d", i),
			Patterns: []Pattern{{FVar("x"), FLabel(in)}, {FVar("y"), FLabel(in)}},
			Branches: []Branch{
				{Cond: expr.MustParse("x <= y"),
					Products: []Template{{expr.MustParse("x"), expr.Lit{Val: value.Str(out)}}}},
				{Products: []Template{{expr.MustParse("y"), expr.Lit{Val: value.Str(out)}}}},
			},
		}
	}
	return MustProgram("tournament", rs...)
}

func tournamentInit(n int) *multiset.Multiset {
	m := multiset.New()
	for i := 0; i < n; i++ {
		m.Add(multiset.Pair(value.Int(int64((i*2654435761+17)%(4*n))), "L0"))
	}
	return m
}

func TestBuildSubscriptions(t *testing.T) {
	labeled := &Reaction{
		Name:     "labeled",
		Patterns: []Pattern{{FVar("x"), FLabel("A")}, {FVar("y"), FLabel("B")}, {FVar("z"), FLabel("A")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x")}}}},
	}
	generic := &Reaction{
		Name:     "generic",
		Patterns: []Pattern{{FVar("x"), FLabel("C")}, {FVar("y")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x")}}}},
	}
	sub := buildSubscriptions([]*Reaction{labeled, generic})
	if got := sub.bySym[symtab.Intern("A")]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("bySym[A] = %v, want [0] (deduped)", got)
	}
	if got := sub.bySym[symtab.Intern("B")]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("bySym[B] = %v, want [0]", got)
	}
	// generic has one pattern with no literal label: wildcard, and none of
	// its labels are indexed (any addition must wake it anyway).
	if len(sub.wildcard) != 1 || sub.wildcard[0] != 1 {
		t.Fatalf("wildcard = %v, want [1]", sub.wildcard)
	}
	if _, ok := sub.bySym[symtab.Intern("C")]; ok {
		t.Fatal("wildcard reaction must not also subscribe by label")
	}
}

func TestSubscriptionsForEach(t *testing.T) {
	sub := &subscriptions{
		bySym:    map[symtab.Sym][]int{symtab.Intern("A"): {0}, symtab.Intern("B"): {1, 2}},
		wildcard: []int{3},
	}
	wake := func(labels ...string) map[int]int {
		got := map[int]int{}
		syms := make([]symtab.Sym, len(labels))
		for i, l := range labels {
			syms[i] = symtab.Intern(l)
		}
		sub.forEachSym(syms, func(i int) { got[i]++ })
		return got
	}
	if got := wake("A"); len(got) != 2 || got[0] != 1 || got[3] != 1 {
		t.Fatalf("forEach(A) woke %v, want {0,3}", got)
	}
	// NoLabelSym deltas wake only the wildcard bucket: an unlabeled element
	// cannot feed a literal-label pattern.
	got := map[int]int{}
	sub.forEachSym([]symtab.Sym{multiset.NoLabelSym}, func(i int) { got[i]++ })
	if len(got) != 1 || got[3] != 1 {
		t.Fatalf("forEachSym(NoLabelSym) woke %v, want {3}", got)
	}
	if got := wake("unknown"); len(got) != 1 || got[3] != 1 {
		t.Fatalf("forEach(unknown) woke %v, want {3}", got)
	}
	if got := wake("A", "B"); len(got) != 4 {
		t.Fatalf("forEach(A,B) woke %v, want {0,1,2,3}", got)
	}
}

// TestIncrementalMatchesFullScanSequential is the firing-sequence parity
// check: the dirty worklist skips only probes that would have failed, so the
// deterministic sequential run reaches the same multiset in the same number
// of steps as the seed full-rescan engine — with strictly fewer probes on a
// multi-reaction labeled program.
func TestIncrementalMatchesFullScanSequential(t *testing.T) {
	p := tournamentProgram(8)
	mInc := tournamentInit(256)
	mFull := mInc.Clone()

	inc, err := Run(p, mInc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(p, mFull, Options{FullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if !mInc.Equal(mFull) {
		t.Fatalf("stable states differ:\nincremental %s\nfullscan    %s", mInc, mFull)
	}
	if inc.Steps != full.Steps {
		t.Fatalf("steps differ: incremental %d, fullscan %d", inc.Steps, full.Steps)
	}
	for name, n := range full.Fired {
		if inc.Fired[name] != n {
			t.Fatalf("firing counts differ for %s: %d vs %d", name, inc.Fired[name], n)
		}
	}
	if inc.Probes >= full.Probes {
		t.Fatalf("incremental probes %d not below fullscan probes %d", inc.Probes, full.Probes)
	}
	// The acceptance bar of the incremental engine: ≥2× fewer probes on a
	// labeled multi-reaction workload.
	if 2*inc.Probes > full.Probes {
		t.Errorf("incremental probes %d vs fullscan %d: expected ≥2× reduction", inc.Probes, full.Probes)
	}
}

// TestSequentialMaxStepsDirect covers the MaxSteps fast path: when a match is
// found past the budget the runtime returns ErrMaxSteps directly, with Steps
// pinned at the budget, in both scheduling modes.
func TestSequentialMaxStepsDirect(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		p := tournamentProgram(8)
		m := tournamentInit(256)
		st, err := Run(p, m, Options{MaxSteps: 10, FullScan: fullScan})
		if err != ErrMaxSteps {
			t.Fatalf("fullScan=%v: err = %v, want ErrMaxSteps", fullScan, err)
		}
		if st.Steps != 10 {
			t.Fatalf("fullScan=%v: steps = %d, want exactly 10", fullScan, st.Steps)
		}
	}
	// A program that stabilizes under the budget must not trip the limit.
	p := tournamentProgram(3)
	m := tournamentInit(8)
	if _, err := Run(p, m, Options{MaxSteps: 1000}); err != nil {
		t.Fatalf("under-budget run failed: %v", err)
	}
}

// TestParallelWorklistMatchesFullScan runs the parallel runtime in both
// scheduling modes on the tournament workload: the unique stable state (the
// global min plus the unreduced leftovers per level) must come out either
// way, and MaxSteps must still be honored.
func TestParallelWorklistMatchesFullScan(t *testing.T) {
	p := tournamentProgram(6)
	init := tournamentInit(64)
	ref := init.Clone()
	if _, err := Run(p, ref, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, fullScan := range []bool{false, true} {
		m := init.Clone()
		st, err := Run(p, m, Options{Workers: 4, Seed: 7, FullScan: fullScan})
		if err != nil {
			t.Fatalf("fullScan=%v: %v", fullScan, err)
		}
		// The tournament's stable state is unique — the global min wins
		// every pairing it appears in — so any schedule must agree.
		if !m.Equal(ref) {
			t.Fatalf("fullScan=%v: stable state %s, sequential %s", fullScan, m, ref)
		}
		if st.Steps != 63 {
			t.Fatalf("fullScan=%v: steps = %d, want 63", fullScan, st.Steps)
		}
	}
}
