package dataflow

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/value"
)

// sameRun compares everything two runs of equal graphs must agree on.
func sameRun(got, want *Result) error {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Errorf("result %v, want %v", got, want)
	case got == nil:
		return nil
	case !reflect.DeepEqual(got.Outputs, want.Outputs):
		return fmt.Errorf("outputs %v, want %v", got.Outputs, want.Outputs)
	case got.Firings != want.Firings || got.Pending != want.Pending || got.Ticks != want.Ticks:
		return fmt.Errorf("firings/pending/ticks %d/%d/%d, want %d/%d/%d",
			got.Firings, got.Pending, got.Ticks, want.Firings, want.Pending, want.Ticks)
	}
	return nil
}

// TestPlanCacheInvalidation is the gate on "a graph never runs on a stale
// plan": after a first run, every mutating method of Graph — alone, where that
// leaves a runnable or a rejected graph, and wired in — followed by a second
// run must give exactly what a fresh Clone of the mutated graph gives, error
// text included, under both accepted engine spellings and a Workers count
// (ignored: each runs the one FIFO schedule). The plan pointer is the compile counter (plan()
// publishes every plan it compiles): it must change exactly when the version
// did, and never on a plain re-run.
func TestPlanCacheInvalidation(t *testing.T) {
	// a=6, b=3, add=a+b → "sum".
	base := func() *Graph {
		g := NewGraph("base")
		a, b := g.AddConst("a", value.Int(6)), g.AddConst("b", value.Int(3))
		add := g.AddArith("add", "+")
		mustConnect(g, a, 0, add, 0, "x")
		mustConnect(g, b, 0, add, 1, "y")
		mustConnect(g, add, 0, NoNode, 0, "sum")
		return g
	}
	const a, b, add = NodeID(0), NodeID(1), NodeID(2)
	// unary wires a one-port vertex behind add with its own terminal edge.
	unary := func(g *Graph, id NodeID) error {
		mustConnect(g, add, 0, id, 0, "in")
		mustConnect(g, id, 0, NoNode, 0, "out")
		return nil
	}
	// binary wires a two-port vertex to both consts.
	binary := func(g *Graph, id NodeID) error {
		mustConnect(g, a, 0, id, 0, "l")
		mustConnect(g, b, 0, id, 1, "r")
		mustConnect(g, id, 0, NoNode, 0, "out")
		return nil
	}
	mutators := []struct {
		name   string
		mutate func(g *Graph) error
	}{
		{"AddConst", func(g *Graph) error { g.AddConst("k", value.Int(1)); return nil }},
		{"AddConst unset", func(g *Graph) error { g.AddConst("k", value.Value{}); return nil }},
		{"AddArith", func(g *Graph) error { return binary(g, g.AddArith("v", "*")) }},
		{"AddArith alone", func(g *Graph) error { g.AddArith("v", "*"); return nil }},
		{"AddArith bad operator", func(g *Graph) error { return binary(g, g.AddArith("v", "**")) }},
		{"AddArithImm", func(g *Graph) error { return unary(g, g.AddArithImm("v", "-", value.Int(100))) }},
		{"AddArithImmLeft", func(g *Graph) error { return unary(g, g.AddArithImmLeft("v", "-", value.Int(100))) }},
		{"AddCompare", func(g *Graph) error { return binary(g, g.AddCompare("v", ">")) }},
		{"AddCompareImm", func(g *Graph) error { return unary(g, g.AddCompareImm("v", "<", value.Int(9))) }},
		{"AddCompareImmLeft", func(g *Graph) error { return unary(g, g.AddCompareImmLeft("v", "<", value.Int(9))) }},
		{"AddSteer", func(g *Graph) error {
			st := g.AddSteer("v")
			mustConnect(g, a, 0, st, 0, "d")
			mustConnect(g, b, 0, st, 1, "c")
			mustConnect(g, st, PortTrue, NoNode, 0, "yes")
			mustConnect(g, st, PortFalse, NoNode, 0, "no")
			return nil
		}},
		{"AddIncTag", func(g *Graph) error { return unary(g, g.AddIncTag("v")) }},
		{"AddCopy", func(g *Graph) error { return unary(g, g.AddCopy("v")) }},
		{"AddCopy alone", func(g *Graph) error { g.AddCopy("v"); return nil }},
		{"AddUnary", func(g *Graph) error { return unary(g, g.AddUnary("v", "-")) }},
		{"AddSetTag", func(g *Graph) error { return unary(g, g.AddSetTag("v")) }},
		// A second edge into add's port 0: one more firing, one operand stranded.
		{"Connect", func(g *Graph) error { _, err := g.Connect(b, 0, add, 0, "x2"); return err }},
		{"Connect refused", func(g *Graph) error { _, err := g.Connect(b, 0, add, 0, "x"); return err }},
		{"ConnectOut", func(g *Graph) error { _, err := g.ConnectOut(add, 0, "sum2"); return err }},
		{"SetConst", func(g *Graph) error { return g.SetConst(a, value.Int(40)) }},
		{"SetConst invalid value", func(g *Graph) error { return g.SetConst(a, value.Value{}) }},
		{"SetConst on an operator", func(g *Graph) error { return g.SetConst(add, value.Int(1)) }},
	}
	engines := append(engineOptions[:len(engineOptions):len(engineOptions)], struct {
		name string
		opt  Options
	}{"pool", Options{Workers: 2}})
	for _, m := range mutators {
		for _, e := range engines {
			t.Run(m.name+"/"+e.name, func(t *testing.T) {
				g := base()
				if res, err := Run(g, e.opt); err != nil || res.Outputs["sum"][0].Val != value.Int(9) {
					t.Fatalf("first run: %v, %v", res, err)
				}
				first := g.compiled.Load()
				if first == nil || first.stamp != g.stamp() {
					t.Fatalf("first run left plan %+v for stamp %+v", first, g.stamp())
				}
				if _, err := Run(g, e.opt); err != nil || g.compiled.Load() != first {
					t.Fatalf("plain re-run: err %v, recompiled %v", err, g.compiled.Load() != first)
				}

				before := g.stamp()
				mutErr := m.mutate(g)
				got, gotErr := Run(g, e.opt)
				want, wantErr := Run(g.Clone("fresh", nil), e.opt)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("after %s (returned %v): err %v, fresh clone %v", m.name, mutErr, gotErr, wantErr)
				}
				if err := sameRun(got, want); err != nil {
					t.Fatalf("after %s (returned %v): %v", m.name, mutErr, err)
				}

				after := g.compiled.Load()
				switch {
				case g.stamp() == before && after != first:
					t.Errorf("%s kept the version but the plan was recompiled", m.name)
				case g.stamp() != before && gotErr == nil && (after == first || after.stamp != g.stamp()):
					t.Errorf("%s started version %+v but the run used plan %+v", m.name, g.stamp(), after.stamp)
				case gotErr != nil && after != first:
					t.Errorf("%s: a rejected graph was compiled", m.name)
				}
				if _, err := Run(g, e.opt); fmt.Sprint(err) != fmt.Sprint(wantErr) || g.compiled.Load() != after {
					t.Errorf("third run: err %v, recompiled %v", err, g.compiled.Load() != after)
				}
			})
		}
	}
}

// TestPlanCacheVersions pins which methods start a version: every structural
// one, exactly once per structural change, and neither SetConst nor a refused
// call. Validate remembers a pass for the version it walked and no other.
func TestPlanCacheVersions(t *testing.T) {
	g := NewGraph("v")
	expect := func(what string, bumps uint64, f func()) {
		t.Helper()
		v := g.version
		f()
		if g.version != v+bumps {
			t.Errorf("%s: version %d → %d, want +%d", what, v, g.version, bumps)
		}
	}
	var c, ai NodeID
	expect("AddConst", 1, func() { c = g.AddConst("c", value.Int(1)) })
	expect("AddArithImm", 2, func() { ai = g.AddArithImm("ai", "+", value.Int(1)) }) // addNode + setImm
	expect("Connect", 1, func() { mustConnect(g, c, 0, ai, 0, "e") })
	expect("ConnectOut", 1, func() { g.ConnectOut(ai, 0, "o") })
	expect("Connect refused", 0, func() { g.Connect(c, 0, ai, 0, "e") })
	expect("SetConst", 0, func() { g.SetConst(c, value.Int(2)) })
	expect("SetConst refused", 0, func() { g.SetConst(c, value.Value{}) })
	if g.Nodes[c].Init != value.Int(2) {
		t.Errorf("a refused SetConst changed the const to %v", g.Nodes[c].Init)
	}

	if g.valid.Load() != nil {
		t.Error("an unvalidated graph carries a validity stamp")
	}
	if err := g.Validate(); err != nil || *g.valid.Load() != g.stamp() {
		t.Fatalf("Validate: %v, stamp %+v, graph %+v", err, g.valid.Load(), g.stamp())
	}
	g.AddCopy("dangling")
	if *g.valid.Load() == g.stamp() {
		t.Error("the validity stamp followed a mutation")
	}
	if _, err := Run(g, Options{}); err == nil {
		t.Error("a graph invalidated after Validate ran")
	}
	// The length guard: a vertex appended around the methods is not covered
	// by the version, and must still not run on the old plan.
	h := buildFig1(1, 5, 3, 2)
	if _, err := Run(h, Options{}); err != nil {
		t.Fatal(err)
	}
	h.Nodes = append(h.Nodes, &Node{ID: NodeID(len(h.Nodes)), Kind: KindCopy, Name: "rogue", In: make([][]EdgeID, 1), Out: make([][]EdgeID, 1)})
	if _, err := Run(h, Options{}); err == nil {
		t.Error("a vertex appended to Nodes directly ran on the stale plan")
	}
}

// TestPlanCacheConcurrentRuns runs one Graph from 8 goroutines per spelling at
// once, from cold — so the first runs race to validate, compile and publish
// the plan — and requires every run to report exactly the reference result.
// Under -race this is the check that the plan is shared read-only and every
// counter a run advances is its own.
func TestPlanCacheConcurrentRuns(t *testing.T) {
	graphs := []*Graph{buildWide(wideInputs(48), 5), buildSkewedLoop(12, 6, true)}
	for _, g := range graphs {
		refs := make([]*Result, len(engineOptions))
		for i, e := range engineOptions {
			var err error
			if refs[i], err = Run(g.Clone("ref", nil), e.opt); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, e := range engineOptions {
			for k := 0; k < 8; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for rep := 0; rep < 3; rep++ {
						res, err := Run(g, e.opt)
						if err != nil {
							t.Errorf("%s/%s: %v", g.Name, e.name, err)
						} else if err := sameRun(res, refs[i]); err != nil {
							t.Errorf("%s/%s: %v", g.Name, e.name, err)
						}
					}
				}()
			}
		}
		close(start)
		wg.Wait()
		if p := g.compiled.Load(); p == nil || p.stamp != g.stamp() {
			t.Errorf("%s: no current plan published after the runs", g.Name)
		}
	}
}

// TestRunStateReuse holds runs that borrow the state a plan lends (runState)
// to fresh runs of the same graph, with the token store's invariants walked
// after every commit. A Result shares no memory with the state: the first
// run's Outputs read the same after two more runs on new constants, which
// reuse the very state the first handed back. A run that stops early — by
// MaxFirings, a cancelled context, the fault injector or a recovered panic —
// or that leaves operands parked drops the state, and the next run, which
// builds its own, equals a fresh clone's. A graph grown after a
// run, through the methods or around them, runs on a new plan whose state is
// sized to it.
func TestRunStateReuse(t *testing.T) {
	checkMatchTables(t)
	ref := func(g *Graph) *Result {
		t.Helper()
		res, err := Run(g.Clone("ref", nil), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// lent returns the state g's plan holds, checked against the plan's sizes.
	lent := func(what string, g *Graph) *runState {
		t.Helper()
		p := g.compiled.Load()
		st := p.spare.Load()
		if st != nil && (len(st.match.direct) != p.multiPort || len(st.series) != len(p.labels) || len(st.q.buf) < p.seeds) {
			t.Errorf("%s: state of %d slots, %d series, a ring of %d for a plan of %d, %d and %d seeds",
				what, len(st.match.direct), len(st.series), len(st.q.buf), p.multiPort, len(p.labels), p.seeds)
		}
		return st
	}

	g := buildWide(wideInputs(48), 5)
	first, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[string][]TaggedValue, len(first.Outputs))
	for label, vs := range first.Outputs {
		kept[label] = append([]TaggedValue(nil), vs...)
	}
	st := lent("first run", g)
	if st == nil {
		t.Fatal("a clean run handed no state back")
	}
	for i, x := range wideInputs(48) { // every steer takes the other branch
		if err := g.SetConst(g.NodeByName(fmt.Sprintf("x%d", i)).ID, value.Int(999-x)); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 2; rep++ {
		res, err := Run(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRun(res, ref(g)); err != nil {
			t.Errorf("run %d on new constants: %v", rep+2, err)
		}
		if lent("re-run", g) != st {
			t.Errorf("run %d did not reuse the state the first run handed back", rep+2)
		}
	}
	if !reflect.DeepEqual(first.Outputs, kept) {
		t.Errorf("the first run's outputs changed under later runs:\n%v\nwas\n%v", first.Outputs, kept)
	}

	for _, build := range []func() *Graph{
		func() *Graph { return buildWide(wideInputs(48), 5) },
		func() *Graph { return buildSkewedLoop(12, 6, false) },
	} {
		for _, how := range []string{"MaxFirings", "cancelled", "fault", "panic"} {
			g := build()
			want := ref(g)
			if _, err := Run(g, Options{}); err != nil || lent("clean run", g) == nil {
				t.Fatalf("%s: a clean run (err %v) handed no state back", g.Name, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			opt := Options{FaultInjector: func(string, int) error {
				if calls++; calls < 20 {
					return nil
				}
				switch how {
				case "cancelled":
					cancel()
				case "fault":
					return errors.New("injected")
				case "panic":
					panic("injected")
				}
				return nil
			}}
			if how == "MaxFirings" {
				opt.MaxFirings = int64(len(g.compiled.Load().consts)) + 20
			}
			_, err := RunContext(ctx, g, opt)
			cancel()
			if err == nil {
				t.Fatalf("%s/%s: the run did not stop", g.Name, how)
			}
			if lent("stopped run", g) != nil {
				t.Errorf("%s/%s: a run that stopped early handed its state back", g.Name, how)
			}
			res, err := Run(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRun(res, want); err != nil {
				t.Errorf("%s/%s: the run after the stop: %v", g.Name, how, err)
			}
		}
	}

	// The strand vertex keeps the tag-0 constant in its slot to the end.
	parked := buildSkewedLoop(12, 6, true)
	want := ref(parked)
	for rep := 0; rep < 2; rep++ {
		res, err := Run(parked, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRun(res, want); err != nil || res.Pending == 0 {
			t.Errorf("run %d of a graph that parks operands (pending %d): %v", rep+1, res.Pending, err)
		}
		if lent("parked run", parked) != nil {
			t.Errorf("run %d left operands parked and handed its state back", rep+1)
		}
	}

	// Graph growth: a vertex through AddArith and Connect, then one appended
	// to Nodes and wired by hand, each adding a direct slot and a series.
	grown := buildFig1(1, 5, 3, 2)
	x, y := grown.NodeByName("x").ID, grown.NodeByName("y").ID
	byHand := func(from, to NodeID, port int, label string) {
		e := &Edge{ID: EdgeID(len(grown.Edges)), Label: label, From: from, To: to, ToPort: port}
		grown.Edges = append(grown.Edges, e)
		grown.Nodes[from].Out[0] = append(grown.Nodes[from].Out[0], e.ID)
		if to != NoNode {
			grown.Nodes[to].In[port] = append(grown.Nodes[to].In[port], e.ID)
		}
	}
	for _, grow := range []struct {
		name string
		grow func()
	}{
		{"methods", func() {
			v := grown.AddArith("grown", "*")
			mustConnect(grown, x, 0, v, 0, "gx")
			mustConnect(grown, y, 0, v, 1, "gy")
			mustConnect(grown, v, 0, NoNode, 0, "grown")
		}},
		{"by hand", func() {
			v := &Node{ID: NodeID(len(grown.Nodes)), Kind: KindArith, Name: "rogue", Op: "-",
				In: make([][]EdgeID, 2), Out: make([][]EdgeID, 1)}
			grown.Nodes = append(grown.Nodes, v)
			byHand(x, v.ID, 0, "rx")
			byHand(y, v.ID, 1, "ry")
			byHand(v.ID, NoNode, 0, "rogue")
		}},
	} {
		if _, err := Run(grown, Options{}); err != nil {
			t.Fatal(err)
		}
		before := grown.compiled.Load()
		grow.grow()
		res, err := Run(grown, Options{})
		if err != nil {
			t.Fatalf("%s: %v", grow.name, err)
		}
		if err := sameRun(res, ref(grown)); err != nil {
			t.Errorf("grown %s: %v", grow.name, err)
		}
		after := grown.compiled.Load()
		if after == before || after.multiPort != before.multiPort+1 || len(after.labels) != len(before.labels)+1 {
			t.Errorf("grown %s: plan %p → %p, %d → %d slots, %d → %d series", grow.name, before, after,
				before.multiPort, after.multiPort, len(before.labels), len(after.labels))
		}
		if lent("grown "+grow.name, grown) == nil {
			t.Errorf("grown %s: the new plan holds no state", grow.name)
		}
	}
}
