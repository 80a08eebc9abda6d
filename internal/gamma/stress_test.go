package gamma_test

// Race stress for the parallel runtime (run with -race): splitting the
// multiset into sub-solutions must not change any observable result.
// Min-element and the primes sieve run under 2–8 workers against the sequential
// oracle, and seeded property tests sweep Algorithm-1 programs derived from
// random dataflow graphs — comparing the incremental engine with the FullScan
// seed baseline in both runtimes — and from random mini-language programs with
// loops. Every commit of every run here is followed by multiset.CheckInvariants
// on the multiset committed to (gamma.CheckCommits).

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/value"
)

var stressWorkers = []int{2, 3, 4, 8}

// runSeq produces the deterministic sequential result as the oracle.
func runSeq(t *testing.T, p *gamma.Program, init *multiset.Multiset, opt gamma.Options) *multiset.Multiset {
	t.Helper()
	m := init.Clone()
	if _, err := gamma.Run(p, m, opt); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStressParallelMinElement reduces a multiset of ints with Eq. 2's min
// reaction under every worker count; the stable state (the singleton minimum)
// must equal the sequential result.
func TestStressParallelMinElement(t *testing.T) {
	gamma.CheckCommits(t)
	prog, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	init := multiset.New()
	for i := 0; i < n; i++ {
		init.Add(multiset.New1(value.Int(int64((i*2654435761 + 19) % (3 * n)))))
	}
	want := runSeq(t, prog, init, gamma.Options{})
	for _, workers := range stressWorkers {
		for seed := int64(1); seed <= 3; seed++ {
			m := init.Clone()
			st, err := gamma.Run(prog, m, gamma.Options{Workers: workers, Seed: seed})
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if !m.Equal(want) {
				t.Fatalf("workers=%d seed=%d: stable state %s, want %s", workers, seed, m, want)
			}
			if st.Steps != n-1 {
				t.Fatalf("workers=%d seed=%d: steps = %d, want %d", workers, seed, st.Steps, n-1)
			}
		}
	}
}

// TestStressParallelPrimes runs the §II-B sieve (remove every multiple) under
// every worker count; the stable multiset is exactly the primes, so every
// schedule must agree with the sequential result.
func TestStressParallelPrimes(t *testing.T) {
	if testing.Short() {
		t.Skip("sieve probes are quadratic; skipping in -short")
	}
	gamma.CheckCommits(t)
	prog, err := gammalang.ParseProgram("sieve",
		`R = replace (x, y) by y where x % y == 0 and x != y`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	init := multiset.New()
	for i := int64(2); i <= n; i++ {
		init.Add(multiset.New1(value.Int(i)))
	}
	want := runSeq(t, prog, init, gamma.Options{})
	for _, workers := range stressWorkers {
		m := init.Clone()
		if _, err := gamma.Run(prog, m, gamma.Options{Workers: workers, Seed: int64(workers)}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !m.Equal(want) {
			t.Fatalf("workers=%d: stable state %s, want %s", workers, m, want)
		}
	}
}

// TestStressPropertyRandomGraphs is the seeded property test: Algorithm-1
// translations of random dataflow graphs (the literal-label shape the
// subscription index targets) must reach the same stable state under
// (a) the incremental sequential engine vs the FullScan seed baseline, with
// identical step counts and no more probes, and (b) the parallel runtime in
// both scheduling modes. Dataflow graphs are deterministic, so the stable
// multiset is unique and every engine must find it.
func TestStressPropertyRandomGraphs(t *testing.T) {
	gamma.CheckCommits(t)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := equiv.RandomGraph(seed, 6, 40)
			prog, init, err := core.ToGamma(g)
			if err != nil {
				t.Fatal(err)
			}

			mInc := init.Clone()
			inc, err := gamma.Run(prog, mInc, gamma.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mFull := init.Clone()
			full, err := gamma.Run(prog, mFull, gamma.Options{FullScan: true})
			if err != nil {
				t.Fatal(err)
			}
			if !mInc.Equal(mFull) {
				t.Fatalf("sequential stable states differ:\nincremental %s\nfullscan    %s", mInc, mFull)
			}
			if inc.Steps != full.Steps {
				t.Fatalf("sequential steps differ: %d vs %d", inc.Steps, full.Steps)
			}
			if inc.Probes > full.Probes {
				t.Fatalf("incremental probes %d exceed fullscan probes %d", inc.Probes, full.Probes)
			}

			for _, workers := range stressWorkers {
				for _, fullScan := range []bool{false, true} {
					m := init.Clone()
					st, err := gamma.Run(prog, m, gamma.Options{
						Workers: workers, Seed: seed * 31, FullScan: fullScan,
					})
					if err != nil {
						t.Fatalf("workers=%d fullScan=%v: %v", workers, fullScan, err)
					}
					if !m.Equal(mInc) {
						t.Fatalf("workers=%d fullScan=%v: stable state %s, want %s",
							workers, fullScan, m, mInc)
					}
					if st.Steps != inc.Steps {
						t.Fatalf("workers=%d fullScan=%v: steps = %d, want %d (§III-C firing correspondence)",
							workers, fullScan, st.Steps, inc.Steps)
					}
				}
			}
		})
	}
}

// TestPartitionDifferentialRandomPrograms is the sub-solution engine's
// differential on the confluent programs of equiv.RandomProgram: seeded
// mini-language programs with counted loops, compiled to dataflow graphs
// (steer and inctag vertices, so tagged operands that Partition must keep
// together for an iteration to fire inside a part) and converted by Algorithm
// 1. A dataflow graph is deterministic, so the stable multiset is unique: at
// every worker count and seed the parallel run must end on the sequential
// run's multiset after the same number of firings (§III-C's correspondence).
func TestPartitionDifferentialRandomPrograms(t *testing.T) {
	gamma.CheckCommits(t)
	progs := int64(12)
	if testing.Short() {
		progs = 4
	}
	for ps := int64(1); ps <= progs; ps++ {
		src, _ := equiv.RandomProgram(ps, 2+int(ps)%3, 3+int(ps)%5)
		g, err := compiler.Compile("rand", src)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", ps, err, src)
		}
		prog, init, err := core.ToGamma(g)
		if err != nil {
			t.Fatalf("program %d: %v", ps, err)
		}
		want := init.Clone()
		seq, err := gamma.Run(prog, want, gamma.Options{MaxSteps: 1_000_000})
		if err != nil {
			t.Fatalf("program %d: %v\n%s", ps, err, src)
		}
		for _, workers := range stressWorkers {
			for seed := int64(1); seed <= 3; seed++ {
				m := init.Clone()
				st, err := gamma.Run(prog, m, gamma.Options{Workers: workers, Seed: seed, MaxSteps: 1_000_000})
				if err != nil {
					t.Fatalf("program %d workers=%d seed=%d: %v", ps, workers, seed, err)
				}
				if !m.Equal(want) || st.Steps != seq.Steps {
					t.Fatalf("program %d workers=%d seed=%d: %d steps to %s\nsequential: %d steps to %s\n%s",
						ps, workers, seed, st.Steps, m, seq.Steps, want, src)
				}
			}
		}
	}
}
