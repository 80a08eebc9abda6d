package gamma

import (
	"math"
	"math/rand"
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
	// cmd/gfbench e20's adversarial set: the numeric maximum sorts
	// lexicographically first ("1999…" < "2…"), the worst fixed first
	// candidate an ascending whole-multiset walk could start from.
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
// wall-clock half needs a non-race build. Before failing it measures again and
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
	timed := !testing.Short() && !raceEnabled
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

// TestProbeLeavesNoClaimStorage pins the defect behind ROADMAP item 1: a probe
// that backtracks over the whole multiset must leave the recycled searcher no
// bigger than a probe that visited two elements, or every later probe pays
// for the far scan (the claim map's O(n) clear was 73 % of an Eq. 2 run).
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
	k := r.kernel()
	s := k.getSearcher(r, m, nil)
	if s.probe(m) {
		t.Fatal("x + y < 0 matched on non-negative elements")
	}
	if want := int64(n + n*n); s.visited != want {
		t.Fatalf("probe visited %d candidates, want the full %d", s.visited, want)
	}
	k.putSearcher(s)
	if limit := r.Arity() * batchMaxFirings; len(s.claims) != 0 || cap(s.claims) > limit {
		t.Errorf("released searcher holds len=%d cap=%d claim slots, want 0 and <= %d", len(s.claims), cap(s.claims), limit)
	}
	for _, key := range s.claims[:cap(s.claims)] {
		if key != "" {
			t.Fatalf("released searcher still pins key %q", key)
		}
	}
}
