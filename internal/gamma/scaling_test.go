package gamma

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// scalingLayouts are the value sets TestLabelFreeScaling runs Eq. 2 over. A
// layout decides which keys sort first in every shard and how many elements
// can still react with a given x, which is everything a label-free probe's
// cost can depend on besides n.
var scalingLayouts = []struct {
	name string
	vals func(n int) []int64
}{
	{"uniform", func(n int) []int64 {
		rng := rand.New(rand.NewSource(int64(n)))
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(int64(4 * n))
		}
		return vs
	}},
	{"ascending", func(n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(i)
		}
		return vs
	}},
	{"descending", func(n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(3 * (n - i))
		}
		return vs
	}},
	{"heavy-duplicate", func(n int) []int64 {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(int64(n / 64))
		}
		return vs
	}},
	// The adversarial set: the numeric maximum sorts lexicographically first
	// ("1999…" < "2…"), the worst fixed first candidate an ascending
	// whole-multiset walk could start from.
	{"lex-first-maximum", func(n int) []int64 {
		rng := rand.New(rand.NewSource(11))
		lo := int64(2)
		for lo < int64(20*n) {
			lo *= 10
		}
		vs := make([]int64, n)
		vs[0] = lo - 1
		for i := 1; i < n; i++ {
			vs[i] = lo + rng.Int63n(lo/2)
		}
		return vs
	}},
}

// fitExponent is the least-squares slope of log(y) against log(x).
func fitExponent(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	k := float64(len(xs))
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

// TestLabelFreeScaling is the gate on the matcher's locality for label-free
// patterns (ROADMAP 1c): Eq. 2 fires n−O(1) steps, so a matcher whose probe
// costs only the molecules it consumes scans O(n log n) candidates in total —
// the log is the harmonic cost of occasionally binding x to an element near
// the maximum, which only a scan of everything above it can rule out — and
// runs in near-linear wall time, on every layout and in every matcher mode.
//
// The candidate counts run under -race. They repeat exactly in the two
// sequential modes, where the fitted exponent is asserted; a pool run's count
// is one draw from a heavy-tailed distribution (a single x bound to the
// maximum costs n candidates), so there only the per-step bound is. The
// wall-clock half runs only under wallClock(): make check-ci sets
// GAMMAFLOW_WALLCLOCK on a serial line, while tier-1 runs packages side by
// side, and the exponent flaked there. Before failing it measures again and
// keeps each size's faster median: a busy host only ever adds time, while the
// defect this guards against (n^2.0) is slow every time at the large sizes.
func TestLabelFreeScaling(t *testing.T) {
	sizes := []int{1 << 13, 1 << 15, 1 << 17}
	modes := []struct {
		name string
		opt  Options
	}{
		{"deterministic", Options{}},
		{"seeded", Options{Seed: 7}},
		{"workers=2", Options{Workers: 2, Seed: 7}},
	}
	timed := wallClock()
	prog := MustProgram("min", minReaction())
	for _, layout := range scalingLayouts {
		inits := make([]*multiset.Multiset, len(sizes))
		wantSteps := make([]int64, len(sizes))
		for i, n := range sizes {
			vs := layout.vals(n)
			inits[i] = intsMultiset(vs...)
			least, dup := vs[0], 0
			for _, v := range vs {
				switch {
				case v < least:
					least, dup = v, 1
				case v == least:
					dup++
				}
			}
			wantSteps[i] = int64(n - dup) // every copy of the minimum survives
		}
		for _, mode := range modes {
			// measure runs every size reps times and returns, per size, the
			// last run's candidate count and the median wall time.
			measure := func(t *testing.T, reps int) (ns, cands, walls []float64) {
				for i, n := range sizes {
					var st *Stats
					ds := make([]time.Duration, reps)
					for rep := range ds {
						m := inits[i].Clone()
						t0 := time.Now()
						var err error
						st, err = Run(prog, m, mode.opt)
						ds[rep] = time.Since(t0)
						if err != nil {
							t.Fatal(err)
						}
						if st.Steps != wantSteps[i] {
							t.Fatalf("n=%d: %d steps, want %d", n, st.Steps, wantSteps[i])
						}
					}
					sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
					ns = append(ns, float64(n))
					cands = append(cands, float64(st.Candidates))
					walls = append(walls, ds[len(ds)/2].Seconds())
				}
				return ns, cands, walls
			}
			t.Run(layout.name+"/"+mode.name, func(t *testing.T) {
				reps := 1
				if timed {
					reps = 3
				}
				ns, cands, walls := measure(t, reps)
				for i, n := range ns {
					if perStep, bound := cands[i]/float64(wantSteps[i]), 4*math.Log2(n); perStep > bound {
						t.Errorf("n=%.0f: %.1f candidates per step, want <= %.0f (4·log2 n)", n, perStep, bound)
					}
				}
				ce := fitExponent(ns, cands)
				if mode.opt.Workers <= 1 && ce > 1.2 {
					t.Errorf("candidates grow as n^%.2f over n=%v (%v), want exponent <= 1.2", ce, sizes, cands)
				}
				if !timed {
					return
				}
				we := fitExponent(ns, walls)
				for retry := 0; we > 1.5 && retry < 2; retry++ {
					t.Logf("wall time grew as n^%.2f (%v s), measuring again", we, walls)
					_, _, again := measure(t, reps)
					for i := range walls {
						walls[i] = math.Min(walls[i], again[i])
					}
					we = fitExponent(ns, walls)
				}
				if we > 1.5 {
					t.Errorf("wall time grows as n^%.2f over n=%v (%v s), want exponent <= 1.5", we, sizes, walls)
				}
				t.Logf("candidates %v ~ n^%.2f, wall %v s ~ n^%.2f", cands, ce, walls, we)
			})
		}
	}
}

// sieveReaction is the §II-B primes program: one label-free reaction that
// removes every proper multiple.
//
//	R = replace (x, y) by y where x % y == 0 and x != y
func sieveReaction() *Reaction {
	return &Reaction{
		Name:     "R",
		Patterns: []Pattern{{FVar("x")}, {FVar("y")}},
		Branches: []Branch{{
			Cond:     expr.MustParse("x % y == 0 and x != y"),
			Products: []Template{{expr.MustParse("y")}},
		}},
	}
}

// tournamentSteps is the closed form of the staged tournament's step count:
// stage i pairs off ⌊cᵢ/2⌋ times and forwards that many elements.
func tournamentSteps(n, stages int) int64 {
	var steps int64
	for c := n; stages > 0; stages-- {
		c /= 2
		steps += int64(c)
	}
	return steps
}

// TestWakePolicyScaling is the shape gate on the labeled workloads and on the
// wake policy (Options.FullScan), TestLabelFreeScaling's twin for the side of
// the matcher that goes through the label indexes. The 14-stage tournament and
// the primes sieve run at three sizes under both policies, deterministic
// sequential engine, so every count repeats exactly, race detector or not
// (-short and -race drop the tournament's largest size: the detector makes it
// 10× slower and can find nothing in a sequential run). Asserted: both policies fire the closed-form number of steps and reach
// the same multiset; total probes and candidates grow no faster than n^1.1,
// i.e. a step costs the same at every n under either policy; the delta
// scheduler needs at least 2.5× fewer probes than waking every reaction on the
// multi-reaction program (4.00× at every size here: 17 504 against 70 004
// probes at n=10⁴) and exactly as many on the single-reaction one, where there
// is nothing to skip.
//
// The sieve is capped at sieveCap firings at every size: its probe binds a
// composite and walks the multiset for a divisor, so it costs O(n) candidates
// in any engine and a run to the fixpoint is at least quadratic. Capped, its totals are the
// cost of a fixed number of probes, and the n^1.1 bound says that a probe
// stays linear; an uncapped run at n=300 checks the closed form n−1−π(n).
func TestWakePolicyScaling(t *testing.T) {
	const stages, sieveCap = 14, 25
	sizes := []int{1000, 10000, 100000}
	quick := testing.Short() || raceEnabled
	ints := func(n int) *multiset.Multiset {
		m := multiset.New()
		for i := int64(2); i <= int64(n); i++ {
			m.Add(multiset.New1(value.Int(i)))
		}
		return m
	}
	workloads := []struct {
		name      string
		prog      *Program
		init      func(n int) *multiset.Multiset
		maxSteps  int64
		wantSteps func(n int) int64
		// quickSizes is how many of sizes a -short or -race run keeps. The
		// capped sieve is cheap at every size and its candidate counts are
		// too lumpy to fit over two points (n^1.13, then n^0.81).
		quickSizes int
		// minRatio is the least fullscan/incremental probe ratio; 0 asks for
		// identical probes and candidates instead.
		minRatio float64
	}{
		{"tournament", tournamentProgram(stages), tournamentInit, 0,
			func(n int) int64 { return tournamentSteps(n, stages) }, 2, 2.5},
		{"primes", MustProgram("sieve", sieveReaction()), ints, sieveCap,
			func(int) int64 { return sieveCap }, 3, 0},
	}
	policies := []struct {
		name     string
		fullScan bool
	}{{"incremental", false}, {"fullscan", true}}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sizes := sizes
			if quick {
				sizes = sizes[:w.quickSizes]
			}
			var ns []float64
			var probes, cands [2][]float64
			for _, n := range sizes {
				var st [2]*Stats
				var final [2]*multiset.Multiset
				for pi, pol := range policies {
					m := w.init(n)
					s, err := Run(w.prog, m, Options{FullScan: pol.fullScan, MaxSteps: w.maxSteps})
					var wantErr error
					if w.maxSteps > 0 {
						wantErr = ErrMaxSteps
					}
					if err != wantErr {
						t.Fatalf("n=%d %s: err = %v, want %v", n, pol.name, err, wantErr)
					}
					if want := w.wantSteps(n); s.Steps != want {
						t.Fatalf("n=%d %s: %d steps, want %d", n, pol.name, s.Steps, want)
					}
					st[pi], final[pi] = s, m
					probes[pi] = append(probes[pi], float64(s.Probes))
					cands[pi] = append(cands[pi], float64(s.Candidates))
				}
				ns = append(ns, float64(n))
				if !final[0].Equal(final[1]) {
					t.Errorf("n=%d: the two policies reached different multisets", n)
				}
				inc, full := st[0], st[1]
				if w.minRatio == 0 {
					if inc.Probes != full.Probes || inc.Candidates != full.Candidates {
						t.Errorf("n=%d: single-reaction program ran differently under the two policies: probes %d vs %d, candidates %d vs %d",
							n, inc.Probes, full.Probes, inc.Candidates, full.Candidates)
					}
				} else if ratio := float64(full.Probes) / float64(inc.Probes); ratio < w.minRatio {
					t.Errorf("n=%d: fullscan/incremental probes = %d/%d = %.2f, want >= %.1f",
						n, full.Probes, inc.Probes, ratio, w.minRatio)
				}
			}
			for pi, pol := range policies {
				pe, ce := fitExponent(ns, probes[pi]), fitExponent(ns, cands[pi])
				if pe > 1.1 || ce > 1.1 {
					t.Errorf("%s: probes %v grow as n^%.2f, candidates %v as n^%.2f over n=%v, want exponents <= 1.1",
						pol.name, probes[pi], pe, cands[pi], ce, sizes)
				}
				t.Logf("%s: probes %v ~ n^%.2f, candidates %v ~ n^%.2f", pol.name, probes[pi], pe, cands[pi], ce)
			}
		})
	}
	t.Run("primes/fixpoint", func(t *testing.T) {
		const n, primes = 300, 62
		for _, pol := range policies {
			st, err := Run(MustProgram("sieve", sieveReaction()), ints(n), Options{FullScan: pol.fullScan})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(n - 1 - primes); st.Steps != want || st.Probes != want+1 {
				t.Errorf("%s: %d steps, %d probes, want %d and %d", pol.name, st.Steps, st.Probes, want, want+1)
			}
		}
	})
}

// TestPoolCommitShape is the parallel engine's "did not collapse" gate in
// counts, whatever the host's clock does: on the 17-stage tournament at n=10⁵
// the work must be done in the sub-solutions, evenly, and not in the sequential
// completion pass after them — every part fires >= 0.8 × steps / workers and
// the completion pass <= 1 % of the steps — and splitting must cost memory
// linear in n with a small constant: a run allocates at most what the
// sequential run does plus 64 B per element. The parts' chunk arrays are most
// of that: 8 B a slot, but a list appended to at its end splits every chunk it
// fills and leaves the halves their grown capacity, 20–27 B per element (Clone
// files the same way); the rest is the parts' arenas restarting their
// geometric chunk growth, once per part and label. An engine whose partition
// puts everything in one part, or whose parts cannot finish their own work,
// shows here as a starved part or a long completion pass; its *time* is
// bench/'s gamma_tournament_par against gamma_tournament.
//
// Reads, identical over 12 runs at GOMAXPROCS 2 and 8: workers=2 parts
// 49 994 + 49 994, completion 6, 3.29 MB (33 B per element) over the
// sequential run's 11.2 MB; workers=8 parts 8 × 12 494, completion 42, 4.79 MB
// (48 B per element) over. CI runs the test on a plain build at GOMAXPROCS 2
// and 8; the allocation half is skipped under the race detector.
func TestPoolCommitShape(t *testing.T) {
	const n, stages = 100000, 17
	p := tournamentProgram(stages)
	want := tournamentSteps(n, stages)
	allocated := func(opt Options) (*Stats, uint64) {
		m := tournamentInit(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Run(p, m, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.Steps != want {
			t.Fatalf("workers=%d: %d steps, the tournament fires %d", opt.Workers, st.Steps, want)
		}
		return st, after.TotalAlloc - before.TotalAlloc
	}
	_, seqBytes := allocated(Options{})
	for _, workers := range []int{2, 8} {
		st, bytes := allocated(Options{Workers: workers, Seed: 1})
		completion := st.Steps
		for id, fired := range st.PartSteps {
			completion -= fired
			if float64(fired) < 0.8*float64(want)/float64(workers) {
				t.Errorf("workers=%d: part %d fired %d of %d steps, want >= 0.8 of an even share", workers, id, fired, want)
			}
		}
		if len(st.PartSteps) != workers || completion > want/100 {
			t.Errorf("workers=%d: parts fired %v, the completion pass %d of %d steps, want <= 1 %%", workers, st.PartSteps, completion, want)
		}
		if extra := int64(bytes) - int64(seqBytes); !raceEnabled && extra > 64*n {
			t.Errorf("workers=%d: allocated %d B, sequential %d B: %d B extra, want <= %d", workers, bytes, seqBytes, extra, 64*n)
		}
		t.Logf("workers=%d: parts %v completion %d, allocated %d B (sequential %d B)", workers, st.PartSteps, completion, bytes, seqBytes)
	}
}

// TestProbeLeavesNoClaimStorage pins the defect behind ROADMAP item 1: a probe
// that backtracks over the whole multiset must leave the searcher no bigger
// than a probe that visited two elements, or every later probe pays for the
// far scan (the claim map's O(n) clear was 73 % of an Eq. 2 run).
func TestProbeLeavesNoClaimStorage(t *testing.T) {
	r := &Reaction{
		Name:     "never",
		Patterns: []Pattern{{FVar("x")}, {FVar("y")}},
		Branches: []Branch{{Cond: expr.MustParse("x + y < 0"), Products: nil}},
	}
	const n = 512
	m := multiset.New()
	for i := 0; i < n; i++ {
		m.Add(multiset.New1(value.Int(int64(i))))
	}
	s := newSearcher(r, new(multiset.View))
	if s.probe(m, nil) {
		t.Fatal("x + y < 0 matched on non-negative elements")
	}
	if want := int64(n + n*n); s.visited != want {
		t.Fatalf("probe visited %d candidates, want the full %d", s.visited, want)
	}
	if limit := r.Arity(); len(s.claims) != 0 || cap(s.claims) > limit {
		t.Errorf("finished probe holds len=%d cap=%d claim slots, want 0 and <= %d", len(s.claims), cap(s.claims), limit)
	}
}
