package main

// e20: workers × n scalability of the work-stealing parallel runtime
// (internal/gamma run.go): per-worker deques with Chase-Lev stealing,
// multi-firing ApplyDeltas batch commits, and per-worker arenas, measured
// against the single-worker engine on the EXPERIMENTS.md E20 protocol.
//
// The workers=1 rows are the reference: Options.Workers=1 selects the
// deterministic sequential interpreter, so the speedup column reads
// "parallel wall / sequential wall" directly. Correctness cross-checks per
// row: the step count must equal the reference (both workloads fire a
// count-determined number of steps regardless of scheduling), and the min
// workload must reach the exact reference stable state (its stable state is
// schedule-independent; the tournament's leftover elements are not, so only
// its cardinality is pinned).
//
// With -guard the experiment enforces a bounded-overhead gate rather than a
// speedup gate: wall(8 workers) must stay within e20GuardFactor of wall(1).
// A speedup assertion would encode the machine into the repo — on a
// single-core host (GOMAXPROCS=1) any parallel speedup is physically
// impossible and the honest requirement is that the scheduler does not
// collapse; EXPERIMENTS.md E20 records the interpretation. The sequential
// Eq. 2 row at n=10⁵ additionally carries an absolute ceiling
// (e20MinSeqCeiling): every relative gate here compares two runs of the same
// build, and two slow runs pass each other.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/metrics"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/value"
)

// e20GuardFactor bounds how much slower the 8-worker run may be than the
// 1-worker run before -guard fails the build. Generous because CI hosts are
// noisy and may schedule all workers on one core.
const e20GuardFactor = 3.0

// e20MinSeqCeiling is the absolute -guard bound on sequential min at n=10⁵.
// The matcher regression of PRs 8–12 (25.6 s on this row, 407 ms before)
// passed every relative gate; 1 s is 2.5× the linear-time figure on the
// 2-core reference host and 25× below the regression.
const e20MinSeqCeiling = time.Second

func expE20() error {
	t := metrics.NewTable("work-stealing parallel runtime: workers × n (incremental engine)",
		"workload", "n", "workers", "steps", "batches", "steals", "conflicts", "time", "speedup", "allocs/step")

	type workload struct {
		name    string
		prog    *gamma.Program
		init    *multiset.Multiset
		n       int
		workers []int // nil: every count of the run's worker sweep
	}
	var ws []workload

	tournament := func(n, stages int) (workload, error) {
		prog, err := gammalang.ParseProgram("tournament", tournamentSource(stages))
		if err != nil {
			return workload{}, err
		}
		m := multiset.New()
		for i := 0; i < n; i++ {
			m.Add(multiset.Pair(value.Int(int64((i*2654435761+17)%(4*n))), "L0"))
		}
		return workload{name: "tournament", prog: prog, init: m, n: n}, nil
	}
	minProg, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		return err
	}
	// Eq. 2 over bare integers: label-free patterns, so every probe enumerates
	// the whole-multiset index from a rotated start and the pool's view locks
	// every shard. The n=10⁵ row runs in -short too — it carries the absolute
	// sequential ceiling.
	minInts := func(n int, workers []int) workload {
		ints := multiset.New()
		for i := 0; i < n; i++ {
			ints.Add(multiset.New1(value.Int(int64((i*2654435761 + 17) % (4 * n)))))
		}
		return workload{name: "min", prog: minProg, init: ints, n: n, workers: workers}
	}
	sizes := []struct{ n, stages int }{{100000, 17}, {1000000, 20}}
	if benchShort {
		sizes = sizes[:1]
	}
	for _, cfg := range sizes {
		w, err := tournament(cfg.n, cfg.stages)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	ws = append(ws, minInts(100000, nil))
	if !benchShort {
		// Sequential only: the row exists to show the deterministic matcher
		// finishing Eq. 2 at 10⁶ at all (it ran for minutes on unlucky layouts
		// before the per-probe costs were made local).
		ws = append(ws, minInts(1000000, []int{1}))
	}

	workerCounts := []int{1, 2, 4, 8}
	if benchShort {
		workerCounts = []int{1, 8}
	}
	for _, w := range ws {
		var refStable *multiset.Multiset
		var refSteps int64
		var baseWall, wall8 time.Duration
		counts := workerCounts
		if w.workers != nil {
			counts = w.workers
		}
		for _, workers := range counts {
			// Workers=1 runs the deterministic sequential interpreter with
			// Seed 0, the reproducible engine the speedup column references.
			opts := gamma.Options{Workers: workers}
			if workers > 1 {
				opts.Seed = 1
			}
			run := func(m *multiset.Multiset) *gamma.Stats {
				st, err := gamma.Run(w.prog, m, opts)
				if err != nil {
					panic(fmt.Sprintf("e20: %s n=%d workers=%d: %v", w.name, w.n, workers, err))
				}
				return st
			}
			run(w.init.Clone()) // warm (kernels, pools, heap goal)
			var best time.Duration
			var st *gamma.Stats
			var m *multiset.Multiset
			for rep := 0; rep < 2; rep++ {
				runtime.GC()
				var d time.Duration
				d = metrics.Time(func() {
					m = w.init.Clone()
					st = run(m)
				})
				if rep == 0 || d < best {
					best = d
				}
			}
			// Allocation cost on a separate run, clone outside the window.
			ma := w.init.Clone()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			sta := run(ma)
			runtime.ReadMemStats(&ms1)
			allocsPerStep := float64(ms1.Mallocs-ms0.Mallocs) / float64(max64(sta.Steps, 1))
			bytesPerStep := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max64(sta.Steps, 1))

			if workers == 1 {
				refStable, refSteps, baseWall = m, st.Steps, best
			} else {
				if st.Steps != refSteps {
					return fmt.Errorf("e20: %s n=%d workers=%d: steps %d, sequential fired %d",
						w.name, w.n, workers, st.Steps, refSteps)
				}
				if w.name == "min" && !m.Equal(refStable) {
					return fmt.Errorf("e20: %s n=%d workers=%d: stable state diverged from sequential", w.name, w.n, workers)
				}
				if m.Len() != refStable.Len() {
					return fmt.Errorf("e20: %s n=%d workers=%d: cardinality %d, sequential %d",
						w.name, w.n, workers, m.Len(), refStable.Len())
				}
			}
			if workers == 8 {
				wall8 = best
			}
			speedup := float64(baseWall) / float64(best)
			t.Row(w.name, w.n, workers, st.Steps, st.Batches, st.Steals, st.Conflicts, best,
				fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.2f", allocsPerStep))
			benchRecords = append(benchRecords, benchRecord{
				Workload: w.name, N: w.n, Engine: "parallel", Workers: workers,
				Steps: st.Steps, Probes: st.Probes, WallNS: best.Nanoseconds(),
				AllocsPerStep: allocsPerStep, BytesPerStep: bytesPerStep,
				Steals: st.Steals, Batches: st.Batches,
			})
		}
		if benchGuard && w.name == "min" && w.n == 100000 && baseWall > e20MinSeqCeiling {
			return fmt.Errorf("e20 guard: sequential min n=%d took %.0fms, ceiling %.0fms — the label-free matcher is superlinear again",
				w.n, float64(baseWall.Nanoseconds())/1e6, float64(e20MinSeqCeiling.Nanoseconds())/1e6)
		}
		// The relative gate pins the labeled tournament workload only: min's
		// label-free patterns force the batch matcher to view-lock every
		// shard, an overhead a single core cannot hide (honest and recorded in
		// the table/JSON, bounded by cores elsewhere).
		if benchGuard && w.name == "tournament" && wall8 > 0 && float64(wall8) > e20GuardFactor*float64(baseWall) {
			return fmt.Errorf("e20 guard: %s n=%d: 8-worker wall %.1fms exceeds %.1fx single-worker %.1fms",
				w.name, w.n, float64(wall8.Nanoseconds())/1e6, e20GuardFactor,
				float64(baseWall.Nanoseconds())/1e6)
		}
	}
	fmt.Print(t)
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d — speedups saturate at the core count;\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Println("claim: batch commits amortize lock acquisitions (steps/batches > 1) and the")
	fmt.Println("       arena path holds incremental allocations near zero per firing")
	fmt.Println()
	return e20MinOrder()
}

// e20MinOrderGuardFactor bounds how much slower the adversarial value layout
// may run than the benign one. Before the rotated candidate pick the ratio
// was O(n) probes/step vs O(1) — three orders of magnitude at n=20000 — so a
// single-digit bound pins the fix with plenty of noise margin.
const e20MinOrderGuardFactor = 4.0

// e20MinOrder measures the sequential matcher's candidate-order pathology
// (ROADMAP 2c): the min reduction over a value set whose numeric maximum
// sorts lexicographically first. The deterministic matcher used to pin the
// first pattern to the global lex-first candidate on every probe; when that
// candidate is the numeric maximum it can never be the kept element, so each
// probe rescanned the whole multiset before backtracking onto a workable
// binding — O(n) candidates visited per step, O(n²) for the run. The state-derived
// rotated enumeration (multiset.IterAllRot) removes the preferred first
// candidate; the guard pins that by bounding the adversarial wall against a
// benign layout of the same size. Runs in -short: it is the regression gate
// for the fix, not a scaling study.
func e20MinOrder() error {
	minProg, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		return err
	}
	const n = 20000
	rng := rand.New(rand.NewSource(11))
	benign := multiset.New()
	adv := multiset.New()
	// Numeric maximum of the whole set, yet lexicographically first among the
	// keys ("1999999" < "2xxxxx"): the worst possible fixed first candidate.
	adv.Add(multiset.New1(value.Int(1999999)))
	for i := 0; i < n; i++ {
		v := int64(200000 + rng.Intn(100000))
		benign.Add(multiset.New1(value.Int(v)))
		if i > 0 {
			adv.Add(multiset.New1(value.Int(v)))
		}
	}

	t := metrics.NewTable("sequential matcher candidate order: min with a lex-first numeric maximum",
		"workload", "n", "steps", "probes", "time", "probes/step", "cands/step")
	measure := func(name string, init *multiset.Multiset) (time.Duration, error) {
		run := func() (*gamma.Stats, *multiset.Multiset, error) {
			m := init.Clone()
			st, err := gamma.Run(minProg, m, gamma.Options{Workers: 1})
			return st, m, err
		}
		if _, _, err := run(); err != nil { // warm
			return 0, fmt.Errorf("e20 min-order %s: %w", name, err)
		}
		var best time.Duration
		var st *gamma.Stats
		for rep := 0; rep < 2; rep++ {
			runtime.GC()
			var rerr error
			d := metrics.Time(func() { st, _, rerr = run() })
			if rerr != nil {
				return 0, fmt.Errorf("e20 min-order %s: %w", name, rerr)
			}
			if rep == 0 || d < best {
				best = d
			}
		}
		t.Row(name, n, st.Steps, st.Probes, best,
			fmt.Sprintf("%.1f", float64(st.Probes)/float64(max64(st.Steps, 1))),
			fmt.Sprintf("%.1f", float64(st.Candidates)/float64(max64(st.Steps, 1))))
		benchRecords = append(benchRecords, benchRecord{
			Workload: name, N: n, Engine: "sequential", Workers: 1,
			Steps: st.Steps, Probes: st.Probes, WallNS: best.Nanoseconds(),
		})
		return best, nil
	}
	benignWall, err := measure("min-benign", benign)
	if err != nil {
		return err
	}
	advWall, err := measure("min-adversarial", adv)
	if err != nil {
		return err
	}
	fmt.Print(t)
	fmt.Println("claim: rotated candidate enumeration keeps the deterministic matcher's")
	fmt.Println("       per-step cost O(1) regardless of the key order of the value set")
	if benchGuard && float64(advWall) > e20MinOrderGuardFactor*float64(benignWall) {
		return fmt.Errorf("e20 min-order guard: adversarial wall %.1fms exceeds %.1fx benign %.1fms — lex-first candidate pathology is back",
			float64(advWall.Nanoseconds())/1e6, e20MinOrderGuardFactor,
			float64(benignWall.Nanoseconds())/1e6)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
