package replay

import (
	"fmt"
	"math"
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
// every step replays, to the recorded outputs, with nothing pending. A plain
// build also requires wall time ~ steps^<=1.3 and the widest replay under
// 250 ms. Before failing on time it measures again and keeps each width's
// faster median: a busy host only adds time, a quadratic replay is slow every
// time.
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
	if raceEnabled || testing.Short() {
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
