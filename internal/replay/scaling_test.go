package replay

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/value"
)

// wideGraph is bench/'s df_wide shape: width independent const → compare →
// steer instances with a depth-deep arithmetic chain on each steer branch, of
// which only the taken one fires — width×(depth+3) firings over
// width×(2·depth+3) vertices, every vertex under its own name.
func wideGraph(t *testing.T, width, depth int) *dataflow.Graph {
	t.Helper()
	g := dataflow.NewGraph(fmt.Sprintf("wide%dx%d", width, depth))
	connect := func(from dataflow.NodeID, fp int, to dataflow.NodeID, tp int, label string) {
		if _, err := g.Connect(from, fp, to, tp, label); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < width; i++ {
		x := g.AddConst(fmt.Sprintf("x%d", i), value.Int((int64(i)*2654435761+17)%1000))
		c := g.AddCompareImm(fmt.Sprintf("c%d", i), "<", value.Int(500))
		st := g.AddSteer(fmt.Sprintf("st%d", i))
		connect(x, 0, c, 0, fmt.Sprintf("e%d.c", i))
		connect(x, 0, st, 0, fmt.Sprintf("e%d.d", i))
		connect(c, 0, st, 1, fmt.Sprintf("e%d.s", i))
		tn, fn := st, st
		tp, fp := dataflow.PortTrue, dataflow.PortFalse
		for d := 0; d < depth; d++ {
			tv := g.AddArithImm(fmt.Sprintf("t%d.%d", i, d), "+", value.Int(int64(d+1)))
			connect(tn, tp, tv, 0, fmt.Sprintf("e%d.t%d", i, d))
			fv := g.AddArithImm(fmt.Sprintf("f%d.%d", i, d), "*", value.Int(2))
			connect(fn, fp, fv, 0, fmt.Sprintf("e%d.f%d", i, d))
			tn, tp, fn, fp = tv, 0, fv, 0
		}
		connect(tn, tp, dataflow.NoNode, 0, fmt.Sprintf("outT%d", i))
		connect(fn, fp, dataflow.NoNode, 0, fmt.Sprintf("outF%d", i))
	}
	return g
}

// TestReplayDataflowScaling is the complexity gate on dataflow replay
// (ROADMAP 6d): gammad replays schedules it is sent, so replaying S firings
// over V vertices has to cost O(S+V), not the O(S·V) of resolving every
// step's vertex name by a scan (6.98 s for the 38 912 steps of the widest
// graph here, whose recorded run took 61 ms). Wide graphs of depth 16 and
// width 2^7..2^11 are recorded and replayed. The count form runs under -race:
// every step replays, to the recorded outputs, with nothing pending. With
// wall-clock gates on (wallClock) it also requires wall time ~ steps^<=1.3 and
// the widest replay under 250 ms. Before failing on time it measures again and
// keeps each width's faster median: a busy host only adds time, a quadratic
// replay is slow every time.
func TestReplayDataflowScaling(t *testing.T) {
	const depth = 16
	widths := []int{1 << 7, 1 << 8, 1 << 9, 1 << 10, 1 << 11}
	graphs := make([]*dataflow.Graph, len(widths))
	scheds := make([]*Schedule, len(widths))
	for i, width := range widths {
		graphs[i] = wideGraph(t, width, depth)
		var rec *dataflow.Result
		scheds[i], rec = recordDataflow(t, graphs[i], dataflow.Options{})
		res, err := ReplayDataflow(graphs[i], scheds[i])
		if err != nil || res.Divergence != nil {
			t.Fatalf("width %d: replay: %v, divergence %v", width, err, res.Divergence)
		}
		if want := width * (depth + 3); res.Steps != want || rec.Firings != int64(want) || len(scheds[i].Steps) != want {
			t.Errorf("width %d: %d steps replayed of %d recorded for %d firings, want %d", width, res.Steps, len(scheds[i].Steps), rec.Firings, want)
		}
		if !res.Stable || res.Pending != 0 {
			t.Errorf("width %d: replay ended stable=%v with %d pending", width, res.Stable, res.Pending)
		}
		if err := sameOutputs(res.Outputs, rec.Outputs); err != nil {
			t.Errorf("width %d: outputs diverged: %v", width, err)
		}
	}
	if !wallClock() {
		return
	}
	measure := func() (steps, walls []float64) {
		for i := range widths {
			ds := make([]time.Duration, 5)
			for k := range ds {
				t0 := time.Now()
				if _, err := ReplayDataflow(graphs[i], scheds[i]); err != nil {
					t.Fatal(err)
				}
				ds[k] = time.Since(t0)
			}
			sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
			steps, walls = append(steps, float64(len(scheds[i].Steps))), append(walls, float64(ds[len(ds)/2]))
		}
		return steps, walls
	}
	const maxExp, maxWidest = 1.3, 250 * time.Millisecond
	steps, walls := measure()
	bad := func() bool {
		return fitExponent(steps, walls) > maxExp || time.Duration(walls[len(walls)-1]) > maxWidest
	}
	if bad() {
		_, again := measure()
		for i := range walls {
			walls[i] = min(walls[i], again[i])
		}
	}
	widest := time.Duration(walls[len(walls)-1])
	t.Logf("replay time ~ steps^%.2f; %d steps in %v (%.0f ns per step)",
		fitExponent(steps, walls), len(scheds[len(scheds)-1].Steps), widest, walls[len(walls)-1]/steps[len(steps)-1])
	if bad() {
		t.Errorf("replay time ~ steps^%.2f over widths 2^7..2^11 and %v for the widest, want <= %.1f and <= %v",
			fitExponent(steps, walls), widest, maxExp, maxWidest)
	}
}

// TestReplayDataflowAllocScaling is the counted twin of
// TestReplayDataflowScaling, over the same graphs: allocations per replayed
// step, a count no busy host moves. Replay that did per-step work in the size
// of the graph or of the schedule allocates more per step as the graph
// widens; the widest may read at most 1.1× the narrowest.
// testing.AllocsPerRun measures at GOMAXPROCS 1; skipped under -race.
func TestReplayDataflowAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	const depth, maxRatio = 16, 1.1
	var perStep []float64
	for _, width := range []int{1 << 7, 1 << 8, 1 << 9, 1 << 10, 1 << 11} {
		g := wideGraph(t, width, depth)
		sched, _ := recordDataflow(t, g, dataflow.Options{})
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := ReplayDataflow(g, sched); err != nil {
				t.Fatal(err)
			}
		})
		perStep = append(perStep, allocs/float64(len(sched.Steps)))
	}
	t.Logf("allocations per replayed step, widths 2^7..2^11: %.3f", perStep)
	if ratio := perStep[len(perStep)-1] / perStep[0]; ratio > maxRatio {
		t.Errorf("allocations per replayed step rise %.3f → %.3f (%.2f×) from width 2^7 to 2^11, want <= %.1f×",
			perStep[0], perStep[len(perStep)-1], ratio, maxRatio)
	}
}

// chainSchedule is the adversarial input of ancestors: S steps, each consuming
// its predecessor's product — a dependency chain S deep — and an initial key no
// step produces, for which a backward scan of the schedule runs to its start.
func chainSchedule(steps int) *Schedule {
	s := &Schedule{Kind: KindGamma, Steps: make([]Step, steps)}
	for i := range s.Steps {
		s.Steps[i] = Step{Step: i + 1, Seq: uint64(i + 1), Name: "R",
			Consumed: []string{fmt.Sprintf("k%d", i), "init"}, Produced: []string{fmt.Sprintf("k%d", i+1)}}
	}
	return s
}

// TestReplayAncestorsScaling is the complexity gate on the divergence report's
// provenance slice (ROADMAP 8d): POST /v1/replay computes it for whatever
// schedule it is sent, so S steps have to cost O(S) — not the O(S²) of finding
// each consumed key's producer by scanning the schedule backwards, nor a
// recursion S frames deep. The count form runs everywhere: on chains of 2^10
// to 2^16 steps the last step's ancestors are exactly every earlier step, and
// a step in the middle has exactly those before it. With wall-clock gates on
// (wallClock) time must grow as steps^<=1.3 (the scan fits 1.9: 2^16 steps
// took 6.1 s, 17 ms now) with the longest chain under 250 ms, measured again before
// failing as in TestReplayDataflowScaling.
func TestReplayAncestorsScaling(t *testing.T) {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	scheds := make([]*Schedule, len(sizes))
	for i, n := range sizes {
		scheds[i] = chainSchedule(n)
		for _, idx := range []int{n - 1, n / 2} {
			got := ancestors(scheds[i], idx)
			if len(got) != idx || !sort.IntsAreSorted(got) || (idx > 0 && (got[0] != 1 || got[idx-1] != idx)) {
				t.Fatalf("%d steps: step %d has %d ancestors, want steps 1..%d", n, idx+1, len(got), idx)
			}
		}
	}
	if !wallClock() {
		return
	}
	measure := func() (steps, walls []float64) {
		for i, n := range sizes {
			ds := make([]time.Duration, 5)
			for k := range ds {
				t0 := time.Now()
				ancestors(scheds[i], n-1)
				ds[k] = time.Since(t0)
			}
			sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
			steps, walls = append(steps, float64(n)), append(walls, float64(ds[len(ds)/2]))
		}
		return steps, walls
	}
	const maxExp, maxLongest = 1.3, 250 * time.Millisecond
	steps, walls := measure()
	bad := func() bool {
		return fitExponent(steps, walls) > maxExp || time.Duration(walls[len(walls)-1]) > maxLongest
	}
	if bad() {
		_, again := measure()
		for i := range walls {
			walls[i] = min(walls[i], again[i])
		}
	}
	t.Logf("ancestors time ~ steps^%.2f; %d steps in %v", fitExponent(steps, walls), sizes[len(sizes)-1], time.Duration(walls[len(walls)-1]))
	if bad() {
		t.Errorf("ancestors time ~ steps^%.2f over 2^10..2^16 steps and %v for the longest, want <= %.1f and <= %v",
			fitExponent(steps, walls), time.Duration(walls[len(walls)-1]), maxExp, maxLongest)
	}
}

// wallClock reports whether this run asserts wall-clock fits. Tier-1 (go test
// ./...) runs packages side by side on two cores, where an exponent fitted
// over a few milliseconds reads what the neighbours leave it (ROADMAP 8e), so
// it asserts the count forms only; make check-ci sets GAMMAFLOW_WALLCLOCK on
// its serial plain-build lines.
func wallClock() bool {
	return os.Getenv("GAMMAFLOW_WALLCLOCK") != "" && !raceEnabled && !testing.Short()
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

// TestDataflowRecorderAllocs is the counted cost of recording a dataflow run
// (ROADMAP 23(d)), over TestReplayDataflowScaling's wide graphs: a recorded
// run plus Schedule(), less the bare run, in allocations per firing. The
// record is a few growing buffers and Schedule() one slab per kind of cell, so
// it reads 0.001–0.014 and must stay under 0.1 — no allocation per firing —
// at every width, never rising with the width. Rendering each token's
// "label@tag" key as its own string cost 6.05 per firing.
// testing.AllocsPerRun measures at GOMAXPROCS 1; skipped under -race.
func TestDataflowRecorderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	const depth, ceiling = 16, 0.1
	var perFiring []float64
	for _, width := range []int{1 << 7, 1 << 8, 1 << 9, 1 << 10, 1 << 11} {
		g := wideGraph(t, width, depth)
		bare := testing.AllocsPerRun(2, func() { recordWide(t, g, false) })
		recorded := testing.AllocsPerRun(2, func() { recordWide(t, g, true) })
		perFiring = append(perFiring, (recorded-bare)/float64(width*(depth+3)))
	}
	t.Logf("allocations per recorded firing, widths 2^7..2^11: %.3f", perFiring)
	for i, a := range perFiring {
		if a > ceiling || (i > 0 && a > perFiring[0]) {
			t.Errorf("recording costs %.3f allocations per firing at width 2^%d (%.3f at 2^7), want <= %.1f and no rise", a, 7+i, perFiring[0], ceiling)
		}
	}
}

// TestDataflowRecorderCostPerFiring is the timed twin of
// TestDataflowRecorderAllocs and the dataflow twin of TestRecorderCostPerFiring:
// on wideGraph(2^11, 16), the median recorded run plus Schedule(), less the
// median bare run, over alternating runs, per firing, measured again before
// failing. It read 900–930 ns on a 2-core guest, where rendering every key as
// its own string read 1 170–1 240; the gate is 1 200 ns. Wall-clock gates
// only (wallClock).
func TestDataflowRecorderCostPerFiring(t *testing.T) {
	if !wallClock() {
		t.Skip("wall-clock gate: set GAMMAFLOW_WALLCLOCK on a non-race build")
	}
	const rounds, ceilingNS = 9, 1200.0
	g := wideGraph(t, 1<<11, 16)
	firings := float64(recordWide(t, g, false))
	cost := func() float64 {
		var ds [2][]time.Duration
		for r := -1; r < rounds; r++ { // the first pair warms the plan and the heap goal
			for mode := range ds {
				runtime.GC()
				t0 := time.Now()
				recordWide(t, g, mode == 1)
				if d := time.Since(t0); r >= 0 {
					ds[mode] = append(ds[mode], d)
				}
			}
		}
		for mode := range ds {
			sort.Slice(ds[mode], func(a, b int) bool { return ds[mode][a] < ds[mode][b] })
		}
		return float64(ds[1][rounds/2]-ds[0][rounds/2]) / firings
	}
	ns := cost()
	for retry := 0; ns > ceilingNS && retry < 2; retry++ {
		t.Logf("recording cost %.0f ns per firing, measuring again", ns)
		ns = min(ns, cost())
	}
	t.Logf("recording costs %.0f ns per firing over %.0f firings", ns, firings)
	if ns > ceilingNS {
		t.Errorf("recording costs %.0f ns per firing, want <= %.0f", ns, ceilingNS)
	}
}

// recordWide runs g, with a recorder and its Schedule() when record is set,
// and returns the firings.
func recordWide(t *testing.T, g *dataflow.Graph, record bool) int64 {
	opt := dataflow.Options{}
	var rec *Recorder
	if record {
		rec = NewRecorder(KindDataflow, g.Name)
		opt.Schedule = rec
	}
	res, err := dataflow.Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil && len(rec.Schedule().Steps) != int(res.Firings) {
		t.Fatalf("recorded %d of %d firings", rec.Len(), res.Firings)
	}
	return res.Firings
}
