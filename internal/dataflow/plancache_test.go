package dataflow

import (
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
	case !reflect.DeepEqual(got.Counts, want.Counts):
		return fmt.Errorf("counts %v, want %v", got.Counts, want.Counts)
	case !reflect.DeepEqual(got.PerNode(), want.PerNode()):
		return fmt.Errorf("per-node %v, want %v", got.PerNode(), want.PerNode())
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
