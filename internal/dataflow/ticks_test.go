package dataflow

// The EngineMatrix spelling is still accepted (the wire's engine: matrix) and
// runs the one FIFO schedule. These cases run that spelling, and hold
// Result.Ticks to the level fold of the run's own schedule (checkTicks).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/value"
)

// recSchedule collects firing records for order-insensitive comparison and
// counts them per vertex name: the per-vertex activity of a run is its
// schedule's.
type recSchedule struct {
	recs    []string
	perName map[string]int64
}

func (r *recSchedule) RecordStepEdges(_ uint64, g *Graph, v NodeID, _ time.Time, in []int32, tag int64, out []int32, outTag int64) {
	name, c, p := g.Nodes[v].Name, tokenKeys(g, in, tag), tokenKeys(g, out, outTag)
	sort.Strings(c)
	sort.Strings(p)
	r.recs = append(r.recs, fmt.Sprintf("%s|%v|%v", name, c, p))
	if r.perName == nil {
		r.perName = make(map[string]int64)
	}
	r.perName[name]++
}

// tokenKeys renders the schedule keys of tokens on edges, all carrying tag.
func tokenKeys(g *Graph, edges []int32, tag int64) []string {
	keys := make([]string, len(edges))
	for i, e := range edges {
		keys[i] = string(AppendTokenKey(nil, g, EdgeID(e), tag))
	}
	return keys
}

// recorded runs g with a recSchedule attached.
func recorded(g *Graph, opt Options) (*Result, *recSchedule, error) {
	rec := &recSchedule{}
	opt.Schedule = rec
	res, err := Run(g, opt)
	return res, rec, err
}

func (r *recSchedule) sorted() []string {
	out := append([]string(nil), r.recs...)
	sort.Strings(out)
	return out
}

// SpanRecorder returns a schedule recorder and the span of the firing DAG of
// what it recorded. The DAG is package replay's, which imports this package,
// so the external tests set this hook (telemetry_test.go).
var SpanRecorder func() (ScheduleRecorder, func() int64)

// checkTicks runs g with a schedule recorder attached and holds the ticks to
// the span of its firing DAG: Ticks = Span − 1, the consts being depth 1.
// (The run-end fold's dataflow.ticks and fired_per_tick are held to Ticks in
// the external telemetry tests.)
func checkTicks(t *testing.T, name string, g *Graph, opt Options) *Result {
	t.Helper()
	rec, span := SpanRecorder()
	opt.Schedule = rec
	res, err := Run(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := max(span()-1, 0); res.Ticks != want {
		t.Errorf("%s: ticks %d, the schedule's span past the consts is %d", name, res.Ticks, want)
	}
	return res
}

func TestMatrixFig1(t *testing.T) {
	res := checkTicks(t, "fig1", buildFig1(1, 5, 3, 2), Options{Engine: EngineMatrix})
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
		name := fmt.Sprintf("loop(%d,%d,%d)", c.a, c.b, c.n)
		res := checkTicks(t, name, buildLoop(c.a, c.b, c.n), Options{Engine: EngineMatrix})
		out, ok := res.Output("out")
		if !ok || out != value.Int(c.want) {
			t.Errorf("%s = %v, want %d", name, out, c.want)
		}
	}
}

// matrixAgreesWithSequential runs g under both accepted engine spellings and
// holds every observable Result field to exact agreement, then the ticks to
// the schedule's level fold.
func matrixAgreesWithSequential(t *testing.T, name string, build func() *Graph) {
	t.Helper()
	seqRes, seqRec, seqErr := recorded(build(), Options{})
	matRes, matRec, matErr := recorded(build(), Options{Engine: EngineMatrix})
	if (seqErr == nil) != (matErr == nil) {
		t.Fatalf("%s: seq err = %v, matrix err = %v", name, seqErr, matErr)
	}
	if seqErr != nil {
		return
	}
	if !reflect.DeepEqual(seqRes.Outputs, matRes.Outputs) {
		t.Errorf("%s: outputs differ:\nseq    %v\nmatrix %v", name, seqRes.Outputs, matRes.Outputs)
	}
	if seqRes.Firings != matRes.Firings || seqRes.Ticks != matRes.Ticks {
		t.Errorf("%s: firings/ticks seq %d/%d matrix %d/%d", name, seqRes.Firings, seqRes.Ticks, matRes.Firings, matRes.Ticks)
	}
	if !reflect.DeepEqual(seqRec.perName, matRec.perName) {
		t.Errorf("%s: per-node seq %v matrix %v", name, seqRec.perName, matRec.perName)
	}
	if seqRes.Pending != matRes.Pending {
		t.Errorf("%s: pending seq %d matrix %d", name, seqRes.Pending, matRes.Pending)
	}
	checkTicks(t, name, build(), Options{})
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

// TestMatrixScheduleDifferential: the matrix spelling records the default
// run's schedule, firing for firing.
func TestMatrixScheduleDifferential(t *testing.T) {
	checkMatchTables(t)
	seqTr, matTr := &recSchedule{}, &recSchedule{}
	if _, err := Run(buildLoop(1, 3, 6), Options{Schedule: seqTr}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(buildLoop(1, 3, 6), Options{Engine: EngineMatrix, Schedule: matTr}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqTr.recs, matTr.recs) {
		t.Errorf("trace records differ:\nseq    %v\nmatrix %v", seqTr.recs, matTr.recs)
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
	// infinite loop: the worklist must observe ctx and stop promptly.
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

// buildStrand is a steer whose false branch feeds one port of a binary vertex
// that never completes: one operand is left parked, and it parks before the
// steer fires.
func buildStrand() *Graph {
	g := NewGraph("strand")
	c2 := g.AddConst("c2", value.Int(5))
	cd := g.AddConst("d", value.Int(1))
	cc := g.AddConst("c", value.Int(1)) // control true
	st := g.AddSteer("st")
	add := g.AddArith("add", "+")
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

func TestMatrixPendingTokens(t *testing.T) {
	res, err := Run(buildStrand(), Options{Engine: EngineMatrix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 1 {
		t.Errorf("pending = %d, want 1 (stranded add operand)", res.Pending)
	}
	matrixAgreesWithSequential(t, "strand", buildStrand)
}

// TestIdleProtocolCatchesDroppedOperand seeds the defect "the dataflow engine
// drops a stuck operand": the afterCommit hook forgets the one operand parked
// in the token store, in the add vertex's direct slot. Outputs and firings
// are unchanged and Pending reads 0, so only the termination cross-check —
// tokens in flight against operands parked — can see it.
func TestIdleProtocolCatchesDroppedOperand(t *testing.T) {
	dropped := false
	afterCommit = func(c *core) {
		for i := range c.match.direct {
			if d := &c.match.direct[i]; !dropped && d.arity > 0 && c.match.pending() == 1 {
				d.ports, d.arity, c.match.used = [2]portQueue{}, 0, c.match.used-1
				dropped = true
			}
		}
	}
	t.Cleanup(func() { afterCommit = nil })
	_, err := Run(buildStrand(), Options{})
	if !dropped {
		t.Fatal("no operand was ever parked alone: the defect was not seeded")
	}
	if !errors.Is(err, rt.ErrInvalid) {
		t.Errorf("run with a dropped operand: err = %v, want rt.ErrInvalid", err)
	}
}

func TestMatrixUnknownEngineRejected(t *testing.T) {
	_, err := Run(buildFig1(1, 5, 3, 2), Options{Engine: "quantum"})
	if !errors.Is(err, rt.ErrInvalid) {
		t.Errorf("err = %v, want rt.ErrInvalid", err)
	}
}
