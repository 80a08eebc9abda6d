package dataflow

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rt"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// recSchedule collects firing records for order-insensitive comparison.
type recSchedule struct {
	recs []string
}

func (r *recSchedule) RecordStep(_ uint64, name string, consumed, produced []string) {
	c := append([]string(nil), consumed...)
	p := append([]string(nil), produced...)
	sort.Strings(c)
	sort.Strings(p)
	r.recs = append(r.recs, fmt.Sprintf("%s|%v|%v", name, c, p))
}

func (r *recSchedule) sorted() []string {
	out := append([]string(nil), r.recs...)
	sort.Strings(out)
	return out
}

func TestMatrixFig1(t *testing.T) {
	g := buildFig1(1, 5, 3, 2)
	res, err := Run(g, Options{Engine: EngineMatrix})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := res.Output("m"); !ok || m != value.Int(0) {
		t.Fatalf("m = %v (%v), want 0", m, ok)
	}
	if res.Firings != 7 {
		t.Errorf("firings = %d, want 7", res.Firings)
	}
	// Fig. 1 is two levels deep past the consts: tick 1 fires {R1, R2},
	// tick 2 fires {R3}.
	if res.Ticks != 2 {
		t.Errorf("ticks = %d, want 2", res.Ticks)
	}
}

func TestMatrixLoop(t *testing.T) {
	cases := []struct{ a, b, n, want int64 }{
		{0, 1, 5, 5},
		{10, 4, 3, 22},
		{7, 100, 0, 7},
		{7, 100, -2, 7},
	}
	for _, c := range cases {
		res, err := Run(buildLoop(c.a, c.b, c.n), Options{Engine: EngineMatrix})
		if err != nil {
			t.Fatalf("loop(%d,%d,%d): %v", c.a, c.b, c.n, err)
		}
		out, ok := res.Output("out")
		if !ok || out != value.Int(c.want) {
			t.Errorf("loop(%d,%d,%d) = %v, want %d", c.a, c.b, c.n, out, c.want)
		}
	}
}

// matrixAgreesWithSequential runs g under both deterministic engines and
// holds every observable Result field to exact agreement. Graphs are rebuilt
// by the caller per engine when they carry state (consts are re-read each
// run, so sharing is fine here).
func matrixAgreesWithSequential(t *testing.T, name string, build func() *Graph) {
	t.Helper()
	seqRes, seqErr := Run(build(), Options{})
	matRes, matErr := Run(build(), Options{Engine: EngineMatrix})
	if (seqErr == nil) != (matErr == nil) {
		t.Fatalf("%s: seq err = %v, matrix err = %v", name, seqErr, matErr)
	}
	if seqErr != nil {
		return
	}
	if !reflect.DeepEqual(seqRes.Outputs, matRes.Outputs) {
		t.Errorf("%s: outputs differ:\nseq    %v\nmatrix %v", name, seqRes.Outputs, matRes.Outputs)
	}
	if seqRes.Firings != matRes.Firings {
		t.Errorf("%s: firings seq %d matrix %d", name, seqRes.Firings, matRes.Firings)
	}
	if !reflect.DeepEqual(seqRes.PerNode(), matRes.PerNode()) {
		t.Errorf("%s: per-node seq %v matrix %v", name, seqRes.PerNode(), matRes.PerNode())
	}
	if seqRes.Pending != matRes.Pending {
		t.Errorf("%s: pending seq %d matrix %d", name, seqRes.Pending, matRes.Pending)
	}
}

func TestMatrixDifferentialVsSequential(t *testing.T) {
	checkMatchTables(t)
	matrixAgreesWithSequential(t, "fig1", func() *Graph { return buildFig1(1, 5, 3, 2) })
	matrixAgreesWithSequential(t, "fig1-alt", func() *Graph { return buildFig1(-3, 12, 7, 0) })
	for _, n := range []int64{0, 1, 5, 40} {
		n := n
		matrixAgreesWithSequential(t, fmt.Sprintf("loop-%d", n),
			func() *Graph { return buildLoop(3, 9, n) })
	}
	matrixAgreesWithSequential(t, "loop-2-2", func() *Graph { return buildLoop(2, 2, 10) })
	// Two same-tag matches with identical operands queued on one vertex.
	matrixAgreesWithSequential(t, "same-tag-queue", func() *Graph {
		g := NewGraph("queue")
		add := g.AddArith("add", "+")
		c1 := g.AddConst("c1", value.Int(1))
		c2 := g.AddConst("c2", value.Int(1))
		c3 := g.AddConst("c3", value.Int(10))
		c4 := g.AddConst("c4", value.Int(10))
		must := func(_ EdgeID, err error) {
			if err != nil {
				panic(err)
			}
		}
		must(g.Connect(c1, 0, add, 0, "l1"))
		must(g.Connect(c2, 0, add, 0, "l2"))
		must(g.Connect(c3, 0, add, 1, "r1"))
		must(g.Connect(c4, 0, add, 1, "r2"))
		must(g.ConnectOut(add, 0, "s"))
		return g
	})
}

func TestMatrixScheduleDifferential(t *testing.T) {
	checkMatchTables(t)
	// The set of (vertex, consumed, produced) records is engine-independent;
	// only the firing order differs.
	seqTr, matTr := &recSchedule{}, &recSchedule{}
	if _, err := Run(buildLoop(1, 3, 6), Options{Schedule: seqTr}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(buildLoop(1, 3, 6), Options{Engine: EngineMatrix, Schedule: matTr}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqTr.sorted(), matTr.sorted()) {
		t.Errorf("trace records differ:\nseq    %v\nmatrix %v", seqTr.sorted(), matTr.sorted())
	}
}

func TestMatrixMaxFirings(t *testing.T) {
	g := NewGraph("spin")
	c := g.AddConst("c", value.Int(1))
	inc := g.AddIncTag("inc")
	cp := g.AddCopy("cp")
	must := func(_ EdgeID, err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.Connect(c, 0, inc, 0, "seed"))
	must(g.Connect(inc, 0, cp, 0, "fwd"))
	must(g.Connect(cp, 0, inc, 0, "back"))
	res, err := Run(g, Options{Engine: EngineMatrix, MaxFirings: 100})
	if !errors.Is(err, ErrMaxFirings) {
		t.Errorf("err = %v, want ErrMaxFirings", err)
	}
	if res == nil || res.Firings != 100 {
		t.Errorf("partial result firings = %+v, want exactly the budget (100)", res)
	}
}

func TestMatrixCancelMidRun(t *testing.T) {
	// Cancel from inside a firing (via the fault injector) on an otherwise
	// infinite loop: the apply pass must observe ctx and stop promptly.
	g := buildLoop(0, 1, 1<<40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	res, err := RunContext(ctx, g, Options{
		Engine: EngineMatrix,
		FaultInjector: func(site string, pe int) error {
			fired++
			if fired == 50 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, rt.ErrCanceled) {
		t.Fatalf("err = %v, want rt.ErrCanceled", err)
	}
	if res == nil || res.Firings == 0 {
		t.Fatalf("partial result missing: %+v", res)
	}
}

func TestMatrixFaultInjected(t *testing.T) {
	boom := errors.New("boom")
	g := buildFig1(1, 5, 3, 2)
	res, err := Run(g, Options{
		Engine: EngineMatrix,
		FaultInjector: func(site string, pe int) error {
			if site == "R3" {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if res == nil || res.Firings == 0 {
		t.Fatalf("partial result missing: %+v", res)
	}
}

func TestMatrixPanicRecovered(t *testing.T) {
	g := buildFig1(1, 5, 3, 2)
	_, err := Run(g, Options{
		Engine: EngineMatrix,
		FaultInjector: func(site string, pe int) error {
			if site == "R2" {
				panic("matrix boom")
			}
			return nil
		},
	})
	var pe *rt.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *rt.PanicError", err)
	}
	if pe.Site != "R2" {
		t.Errorf("panic site = %q, want R2", pe.Site)
	}
}

func TestMatrixRuntimeError(t *testing.T) {
	g := NewGraph("divzero")
	c1 := g.AddConst("c1", value.Int(1))
	div := g.AddArithImm("div", "/", value.Int(0))
	if _, err := g.Connect(c1, 0, div, 0, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectOut(div, 0, "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, Options{Engine: EngineMatrix}); err == nil {
		t.Error("matrix divide by zero should error")
	}
}

func TestMatrixPendingTokens(t *testing.T) {
	// A steer whose false branch feeds one port of a binary vertex that never
	// completes: the stranded operand must be reported as Pending, matching
	// the sequential engine.
	build := func() *Graph {
		g := NewGraph("strand")
		cd := g.AddConst("d", value.Int(1))
		cc := g.AddConst("c", value.Int(1)) // control true
		st := g.AddSteer("st")
		add := g.AddArith("add", "+")
		c2 := g.AddConst("c2", value.Int(5))
		must := func(_ EdgeID, err error) {
			if err != nil {
				panic(err)
			}
		}
		must(g.Connect(cd, 0, st, 0, "d0"))
		must(g.Connect(cc, 0, st, 1, "c0"))
		must(g.Connect(st, PortTrue, NoNode, 0, "t"))
		must(g.Connect(st, PortFalse, add, 0, "f"))
		must(g.Connect(c2, 0, add, 1, "r"))
		must(g.ConnectOut(add, 0, "s"))
		return g
	}
	res, err := Run(build(), Options{Engine: EngineMatrix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 1 {
		t.Errorf("pending = %d, want 1 (stranded add operand)", res.Pending)
	}
	matrixAgreesWithSequential(t, "strand", build)
}

func TestMatrixUnknownEngineRejected(t *testing.T) {
	_, err := Run(buildFig1(1, 5, 3, 2), Options{Engine: "quantum"})
	if !errors.Is(err, rt.ErrInvalid) {
		t.Errorf("err = %v, want rt.ErrInvalid", err)
	}
}

func TestTelemetryDifferentialMatrix(t *testing.T) {
	rec := telemetry.New(0)
	g := buildLoop(1, 1, 40)
	res, err := Run(g, Options{Engine: EngineMatrix, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	checkDFTelemetryAgrees(t, rec, res)
	reg := rec.Metrics
	if got := reg.CounterValue("dataflow.ticks"); got != res.Ticks {
		t.Errorf("counter dataflow.ticks = %d, result says %d", got, res.Ticks)
	}
	if res.Ticks == 0 {
		t.Error("matrix run reported zero ticks")
	}
	// The fired_per_tick histogram observed exactly one sample per tick, and
	// the samples sum to the non-const firings (consts fire before tick 1).
	h := reg.Histogram("dataflow.fired_per_tick")
	if h.Count() != res.Ticks {
		t.Errorf("fired_per_tick count = %d, ticks = %d", h.Count(), res.Ticks)
	}
	consts := int64(len(g.RootNodes()))
	if h.Sum() != res.Firings-consts {
		t.Errorf("fired_per_tick sum = %d, want %d", h.Sum(), res.Firings-consts)
	}
}
