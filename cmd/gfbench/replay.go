package main

// e24: executable schedules — record/replay cost and fidelity (DESIGN.md
// §16). Two claims are measured:
//
//  1. Overhead — attaching a schedule recorder to the hottest workload
//     (tournament n=10^4, the e16/e19 reference row) costs the per-firing
//     fingerprint appends plus the garbage collector's share of the retained
//     schedule. Each timed rep is a batch of back-to-back runs, because the
//     cost is GC work and GC amortizes across runs: timing a single short
//     run right after runtime.GC() turns the measurement into a coin flip on
//     whether the recorder's allocations cross the next GC trigger (one
//     cycle on an 8ms run reads as +60% while steady state is ~15%).
//     The recorded batch must stay within guardSchedulePct of the bare batch
//     (best interleaved rep); with -guard the ceiling gates make check-ci
//     and the overhead lands in BENCH_gamma.json as the trace_overhead_pct
//     of the "recorded" row.
//  2. Determinism — a parallel run's commit-order schedule, replayed
//     sequentially step for step, reproduces the parallel run's final
//     multiset and firing count exactly, across seeds. The replay is itself
//     timed: re-executing from a schedule skips matching entirely (the
//     schedule IS the matching oracle), so replay throughput bounds how
//     cheap divergence diagnosis is.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/gamma"
	"repro/internal/metrics"
	"repro/internal/replay"
)

// guardSchedulePct is the e24 ceiling: the schedule recorder's wall-clock
// overhead on the reference workload, percent of the bare run. The recorder's
// cost is per firing (~250 ns: three keys rendered into a byte buffer), which
// is 13-16% of the -short row's 3.7 ms bare run; the ceiling leaves room for
// this host's noise above that, not for a second per-firing cost.
const guardSchedulePct = 25.0

func expE24() error {
	n, stages, reps := 10000, 14, 5
	if benchShort {
		n, stages, reps = 2000, 11, 3
	}
	prog, init, err := benchTournament(n, stages)
	if err != nil {
		return err
	}

	// 1. Recorder overhead, e19-style interleaving over GC-amortizing
	// batches: warm both modes, interleave the timed reps with a GC reset in
	// front of each batch, keep the best — whole-machine drift then cannot
	// be charged to one mode. A fresh recorder per run inside the batch, as
	// a recording caller would hold one.
	const batch = 8
	run := func(record bool) (time.Duration, int64, error) {
		runtime.GC()
		var st *gamma.Stats
		var rerr error
		d := metrics.Time(func() {
			for i := 0; i < batch && rerr == nil; i++ {
				m := init.Clone()
				opt := gamma.Options{}
				if record {
					opt.Schedule = replay.NewRecorder(replay.KindGamma, "e24")
				}
				st, rerr = gamma.Run(prog, m, opt)
			}
		})
		if rerr != nil {
			return 0, 0, rerr
		}
		return d / batch, st.Steps, nil
	}
	var bares, recordeds []time.Duration
	var bare, recorded time.Duration
	var steps int64
	for rep := -1; rep < reps; rep++ {
		d, s, rerr := run(false)
		if rerr != nil {
			return rerr
		}
		if rep >= 0 {
			bares = append(bares, d)
		}
		if rep == 0 || (rep > 0 && d < bare) {
			bare = d
		}
		d, _, rerr = run(true)
		if rerr != nil {
			return rerr
		}
		if rep >= 0 {
			recordeds = append(recordeds, d)
		}
		if rep == 0 || (rep > 0 && d < recorded) {
			recorded = d
		}
		steps = s
	}
	// Guard on the paired minimum (see minPairedPct): a systematic recording
	// cost raises every rep, a one-off CFS stall on this one-core host only
	// raises one — the min is the noise-immune upper bound on the former.
	pct := minPairedPct(recordeds, bares)

	t := metrics.NewTable(fmt.Sprintf("schedule recording overhead (tournament n=%d, sequential engine, per-run over batches of %d)", n, batch),
		"mode", "steps", "time/run", "overhead")
	t.Row("bare", steps, bare, "baseline")
	t.Row("recorded", steps, recorded, fmt.Sprintf("%+.1f%%", pct))
	fmt.Print(t)
	benchRecords = append(benchRecords,
		benchRecord{Workload: "replay-sched", N: n, Engine: "bare", Steps: steps, WallNS: bare.Nanoseconds()},
		benchRecord{Workload: "replay-sched", N: n, Engine: "recorded", Steps: steps,
			WallNS: recorded.Nanoseconds(), TraceOverheadPct: pct})
	if benchGuard && pct > guardSchedulePct {
		return fmt.Errorf("e24 guard: schedule recording overhead %+.1f%% above the %.0f%% ceiling", pct, guardSchedulePct)
	}
	fmt.Println()

	// 2. Parallel record → sequential replay, across seeds: the linearized
	// commit order must re-execute to the identical stable state.
	dt := metrics.NewTable("parallel record -> sequential replay (workers=4)",
		"seed", "steps", "replay", "steps/s", "verdict")
	for seed := int64(1); seed <= 3; seed++ {
		rec := replay.NewRecorder(replay.KindGamma, "e24")
		m := init.Clone()
		st, err := gamma.Run(prog, m, gamma.Options{Workers: 4, Seed: seed, Schedule: rec})
		if err != nil {
			return err
		}
		sched := rec.Schedule()
		var res *replay.GammaResult
		var rerr error
		replayed := init.Clone()
		d := metrics.Time(func() {
			res, rerr = replay.ReplayGamma(prog, replayed, sched)
		})
		if rerr != nil {
			return rerr
		}
		if res.Divergence != nil {
			return fmt.Errorf("e24 seed %d: replay diverged: %v", seed, res.Divergence)
		}
		if !res.Stable || int64(res.Steps) != st.Steps || !res.Final.Equal(m) {
			return fmt.Errorf("e24 seed %d: replay steps=%d stable=%v vs run steps=%d; multisets equal=%v",
				seed, res.Steps, res.Stable, st.Steps, res.Final.Equal(m))
		}
		dt.Row(seed, res.Steps, fmtDur(d), fmt.Sprintf("%.0f", float64(res.Steps)/d.Seconds()), "identical")
	}
	fmt.Print(dt)
	fmt.Println("claim: a parallel Gamma run is one linearization of the firing history (§III-C);")
	fmt.Println("       its commit-order schedule replays sequentially to the same stable state,")
	fmt.Println("       and recording it costs a bounded slice of the run")
	return nil
}
