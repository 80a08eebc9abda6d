package main

// e16: the delta-driven incremental wake policy (internal/gamma schedule.go)
// against the seed's wake-everything policy (Options.FullScan), on the
// workloads of EXPERIMENTS.md E16. Both policies share the matcher and the
// commit path; each row runs the same program and initial multiset under
// both and cross-checks that they reach the same stable state in the same
// number of steps — the firing-sequence parity argument — before comparing
// probe counts and wall time.
//
// -bench-json persists the measurements as a machine-readable snapshot
// (BENCH_gamma.json), the regression baseline for future engine changes.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/metrics"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/value"
)

// benchRecord is one engine × workload measurement of e16.
type benchRecord struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Engine   string `json:"engine"`
	// Workers is the worker count of the parallel-engine rows (e20); 0 on
	// the sequential e16 rows.
	Workers int `json:"workers,omitempty"`
	// MaxSteps is the step cap of the run; 0 means it ran to the stable state.
	MaxSteps int64 `json:"max_steps,omitempty"`
	Steps    int64 `json:"steps"`
	Probes   int64 `json:"probes"`
	WallNS   int64 `json:"wall_ns"`
	// AllocsPerStep and BytesPerStep are heap costs per firing, measured on a
	// separate (untimed) run via runtime.MemStats deltas; the initial
	// multiset clone happens before the window so only the engine is charged.
	AllocsPerStep float64 `json:"allocs_per_step"`
	BytesPerStep  float64 `json:"bytes_per_step"`
	// TraceOverheadPct is the wall-clock cost of running with a full telemetry
	// recorder attached, relative to the untraced run, in percent. Measured on
	// the tournament n=10^4 reference rows (see e19) and on the e23
	// service-trace rows (best paired round vs the untraced mode); 0 elsewhere.
	TraceOverheadPct float64 `json:"trace_overhead_pct,omitempty"`
	// Ticks is the bulk-synchronous round count of the matrix dataflow engine
	// on the e22 rows; 0 under the token-at-a-time engines.
	Ticks int64 `json:"ticks,omitempty"`
	// Steals and Batches carry the work-stealing scheduler's accounting on
	// the parallel rows: steals are deque takeovers, batches are multi-firing
	// ApplyDeltas commits (steps/batches = average firings per commit).
	Steals  int64 `json:"steals,omitempty"`
	Batches int64 `json:"batches,omitempty"`
	// RPS, P50NS and P99NS are the service rows of e21 (engine "service"):
	// sustained closed-loop request throughput against an in-process gammad
	// and the request-latency quantiles. 0 on the in-process rows.
	RPS   float64 `json:"rps,omitempty"`
	P50NS int64   `json:"p50_ns,omitempty"`
	P99NS int64   `json:"p99_ns,omitempty"`
}

// benchRecords accumulates e16's measurements for -bench-json.
var benchRecords []benchRecord

// benchShort restricts e16 to the tournament rows — the CI smoke
// configuration of `make bench-compare` (set by gfbench -short).
var benchShort bool

// benchGuard makes e16 fail (exit nonzero) if the incremental policy is not
// strictly faster than the full rescan on the multi-reaction workloads at
// n=10^4 — the perf regression gate of `make bench-compare`. A
// single-reaction program (min, the sieve) runs identically under both
// policies, so only the probe-count check applies to it.
var benchGuard bool

// tournamentSource generates the staged pairwise min reduction over labeled
// elements: min-element (Eq. 2) in the literal-label shape Algorithm 1 emits,
// where each reaction subscribes to exactly one label.
func tournamentSource(stages int) string {
	src := ""
	for i := 0; i < stages; i++ {
		src += fmt.Sprintf("R%d = replace [x, 'L%d'], [y, 'L%d'] by [x, 'L%d'] if x <= y by [y, 'L%d'] else\n",
			i, i, i, i+1, i+1)
	}
	return src
}

func expE16() error {
	t := metrics.NewTable("incremental matching engine vs seed full rescan (sequential)",
		"workload", "n", "engine", "steps", "probes", "time", "allocs/step", "B/step", "trace-ovh")

	type workload struct {
		name     string
		prog     *gamma.Program
		init     *multiset.Multiset
		n        int
		maxSteps int64
	}
	var ws []workload

	if !benchShort {
		min, err := gammalang.ParseProgram("min", paper.MinElementListing)
		if err != nil {
			return err
		}
		ints := func(n int) *multiset.Multiset {
			m := multiset.New()
			for i := 0; i < n; i++ {
				m.Add(multiset.New1(value.Int(int64((i*2654435761 + 17) % (4 * n)))))
			}
			return m
		}
		for _, n := range []int{1000, 10000} {
			ws = append(ws, workload{"min", min, ints(n), n, 0})
		}
	}

	for _, n := range []int{1000, 10000} {
		stages := 10
		if n == 10000 {
			stages = 14
		}
		prog, err := gammalang.ParseProgram("tournament", tournamentSource(stages))
		if err != nil {
			return err
		}
		m := multiset.New()
		for i := 0; i < n; i++ {
			m.Add(multiset.Pair(value.Int(int64((i*2654435761+17)%(4*n))), "L0"))
		}
		ws = append(ws, workload{"tournament", prog, m, n, 0})
	}

	if !benchShort {
		sieve, err := gammalang.ParseProgram("sieve",
			`R = replace (x, y) by y where x % y == 0 and x != y`)
		if err != nil {
			return err
		}
		primes := func(n int) *multiset.Multiset {
			m := multiset.New()
			for i := int64(2); i <= int64(n); i++ {
				m.Add(multiset.New1(value.Int(i)))
			}
			return m
		}
		// The sieve's probes are quadratic in any engine (its single generic
		// reaction is a wildcard subscriber): a no-regression data point, step-
		// capped so the rows stay about scheduling, not about the sieve's cost.
		ws = append(ws, workload{"primes", sieve, primes(1000), 1000, 100})
		ws = append(ws, workload{"primes", sieve, primes(10000), 10000, 25})
	}

	engines := []struct {
		name     string
		fullScan bool
	}{{"incremental", false}, {"fullscan", true}}
	for _, w := range ws {
		var stable [2]*multiset.Multiset
		var stats [2]*gamma.Stats
		var wall [2]time.Duration
		var allocsPerStep, bytesPerStep [2]float64
		run := func(fullScan bool, m *multiset.Multiset) *gamma.Stats {
			st, err := gamma.Run(w.prog, m, gamma.Options{
				FullScan: fullScan, MaxSteps: w.maxSteps,
			})
			if err != nil && !(w.maxSteps > 0 && err == gamma.ErrMaxSteps) {
				panic(err)
			}
			return st
		}
		// Warm both engines before timing either, then interleave the timed
		// reps with a GC reset in front of each: without this, whichever
		// engine runs later inherits the larger heap goal the earlier one
		// ratcheted up and wins on GC frequency, not on scheduling.
		for _, eng := range engines {
			run(eng.fullScan, w.init.Clone())
		}
		for rep := 0; rep < 3; rep++ {
			for ei, eng := range engines {
				runtime.GC()
				var st *gamma.Stats
				var m *multiset.Multiset
				d := metrics.Time(func() {
					m = w.init.Clone()
					st = run(eng.fullScan, m)
				})
				if rep == 0 || d < wall[ei] {
					wall[ei] = d
				}
				stable[ei], stats[ei] = m, st
			}
		}
		for ei, eng := range engines {
			// Allocation cost on a separate run: the clone happens before the
			// MemStats window so only the engine's own allocations are counted.
			ma := w.init.Clone()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			sta := run(eng.fullScan, ma)
			runtime.ReadMemStats(&ms1)
			steps := sta.Steps
			if steps == 0 {
				steps = 1
			}
			allocsPerStep[ei] = float64(ms1.Mallocs-ms0.Mallocs) / float64(steps)
			bytesPerStep[ei] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(steps)
		}
		// Trace overhead on the reference rows: the tournament at n=10^4 is
		// the workload the ≤2% disabled-overhead budget is stated against.
		var tracePct [2]float64
		traced := w.name == "tournament" && w.n == 10000
		if traced {
			for ei, eng := range engines {
				_, _, pct, err := traceOverhead(w.prog, w.init,
					gamma.Options{FullScan: eng.fullScan, MaxSteps: w.maxSteps}, 9)
				if err != nil {
					return err
				}
				tracePct[ei] = pct
			}
		}
		for ei, eng := range engines {
			st := stats[ei]
			ovh := "-"
			if traced {
				ovh = fmt.Sprintf("%+.1f%%", tracePct[ei])
			}
			t.Row(w.name, w.n, eng.name, st.Steps, st.Probes, wall[ei],
				fmt.Sprintf("%.1f", allocsPerStep[ei]), fmt.Sprintf("%.0f", bytesPerStep[ei]), ovh)
			benchRecords = append(benchRecords, benchRecord{
				Workload: w.name, N: w.n, Engine: eng.name,
				MaxSteps: w.maxSteps, Steps: st.Steps, Probes: st.Probes,
				WallNS:        wall[ei].Nanoseconds(),
				AllocsPerStep: allocsPerStep[ei], BytesPerStep: bytesPerStep[ei],
				TraceOverheadPct: tracePct[ei],
			})
		}
		// Cross-check: both engines are the same semantics, so same stable
		// state and same deterministic firing sequence.
		if !stable[0].Equal(stable[1]) {
			return fmt.Errorf("e16: %s n=%d: engines reached different stable states", w.name, w.n)
		}
		if stats[0].Steps != stats[1].Steps {
			return fmt.Errorf("e16: %s n=%d: steps differ (%d vs %d)",
				w.name, w.n, stats[0].Steps, stats[1].Steps)
		}
		if stats[0].Probes > stats[1].Probes {
			return fmt.Errorf("e16: %s n=%d: incremental probed more (%d vs %d)",
				w.name, w.n, stats[0].Probes, stats[1].Probes)
		}
		if w.name == "tournament" {
			fmt.Printf("tournament n=%d: probes fullscan/incremental = %.2fx\n",
				w.n, float64(stats[1].Probes)/float64(stats[0].Probes))
		}
		if benchGuard && w.n == 10000 && len(w.prog.Reactions) > 1 && wall[0] >= wall[1] {
			return fmt.Errorf("e16 guard: %s n=%d: incremental wall %.1fms not below fullscan %.1fms",
				w.name, w.n, float64(wall[0].Nanoseconds())/1e6, float64(wall[1].Nanoseconds())/1e6)
		}
	}
	fmt.Print(t)
	fmt.Println("claim: labeled multi-reaction workloads need ≥2x fewer probes under delta scheduling;")
	fmt.Println("       single-wildcard-reaction workloads (min, primes) are probe-identical by construction")
	return nil
}

// writeBenchJSON persists the e16/e20 measurements, running e16 first if
// nothing has measured in this invocation.
func writeBenchJSON(path string) error {
	if len(benchRecords) == 0 {
		if err := expE16(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(benchRecords, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// baselineWallFactor is how much slower than the recorded baseline a row's
// wall time may be before -baseline fails the run. Wide, because the
// snapshot was taken on one particular machine and CI runs on another; the
// deterministic columns (steps, probes) are compared strictly instead.
const baselineWallFactor = 4.0

// checkBaseline regression-checks this invocation's measurements against a
// previously written BENCH_gamma.json: rows are matched by (workload, n,
// engine, workers, max_steps); matched rows must reproduce the recorded step
// count, must not probe more than the baseline on the deterministic
// sequential engines, and must stay within baselineWallFactor of its wall
// time. Rows without a baseline counterpart (new experiments) pass.
func checkBaseline(path string) error {
	if len(benchRecords) == 0 {
		return fmt.Errorf("-baseline: no measurements to compare; combine with -exp e16, e20 or all")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base []benchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-baseline %s: %w", path, err)
	}
	type key struct {
		workload string
		n        int
		engine   string
		workers  int
		maxSteps int64
	}
	idx := make(map[key]benchRecord, len(base))
	for _, b := range base {
		idx[key{b.Workload, b.N, b.Engine, b.Workers, b.MaxSteps}] = b
	}
	compared := 0
	for _, r := range benchRecords {
		b, ok := idx[key{r.Workload, r.N, r.Engine, r.Workers, r.MaxSteps}]
		if !ok {
			continue
		}
		compared++
		id := fmt.Sprintf("%s n=%d engine=%s workers=%d", r.Workload, r.N, r.Engine, r.Workers)
		if r.Steps != b.Steps {
			return fmt.Errorf("baseline: %s: steps %d, baseline %d", id, r.Steps, b.Steps)
		}
		if (r.Engine == "incremental" || r.Engine == "fullscan") && r.Probes > b.Probes {
			return fmt.Errorf("baseline: %s: probes %d regressed above baseline %d", id, r.Probes, b.Probes)
		}
		if float64(r.WallNS) > baselineWallFactor*float64(b.WallNS) {
			return fmt.Errorf("baseline: %s: wall %.1fms exceeds %.0fx baseline %.1fms",
				id, float64(r.WallNS)/1e6, baselineWallFactor, float64(b.WallNS)/1e6)
		}
	}
	fmt.Printf("baseline: %d rows within tolerance of %s\n", compared, path)
	return nil
}
