package paper

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/value"
)

func TestFig1GraphComputesM(t *testing.T) {
	res, err := dataflow.Run(Fig1Graph(), dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := res.Output("m")
	if !ok || m != value.Int(Example1M) {
		t.Fatalf("m = %v, want %d", m, Example1M)
	}
	if Example1M != 0 {
		t.Errorf("paper constant: m should be 0, got %d", Example1M)
	}
}

func TestFig2FaithfulGraphDiscardsEverything(t *testing.T) {
	// The paper's listing discards all operands on loop exit, so the
	// faithful graph terminates with no outputs.
	res, err := dataflow.Run(Fig2Graph(), dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Errorf("faithful Fig. 2 should produce no outputs, got %v", res.Outputs)
	}
	if res.Firings == 0 {
		t.Error("loop should have fired")
	}
}

func TestFig2ObservableComputesLoop(t *testing.T) {
	cases := []struct{ x, y, z int64 }{
		{10, 4, 3}, {0, 1, 10}, {5, 7, 0}, {5, 7, -3}, {100, -2, 4},
	}
	for _, c := range cases {
		g := Fig2GraphObservable(c.x, c.y, c.z)
		res, err := dataflow.Run(g, dataflow.Options{})
		if err != nil {
			t.Fatalf("fig2(%v): %v", c, err)
		}
		want := Example2Result(c.x, c.y, c.z)
		out, ok := res.Output("xout")
		if !ok || out != value.Int(want) {
			t.Errorf("fig2(%d,%d,%d) = %v, want %d", c.x, c.y, c.z, out, want)
		}
	}
}

func TestFig2ObservableParallel(t *testing.T) {
	g := Fig2GraphObservable(10, 4, 25)
	res, err := dataflow.Run(g, dataflow.Options{Engine: dataflow.EngineMatrix})
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := res.Output("xout"); out != value.Int(110) {
		t.Errorf("xout = %v, want 110", out)
	}
}

func TestFixtureGraphsLoopDiscipline(t *testing.T) {
	// Every cycle in the Fig. 2 graphs passes through an inctag — the tag
	// discipline CheckLoops enforces.
	for name, g := range map[string]*dataflow.Graph{
		"fig1": Fig1Graph(), "fig2": Fig2Graph(), "fig2-obs": Fig2GraphObservable(1, 1, 1),
	} {
		if err := g.CheckLoops(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFixtureGraphsValidate(t *testing.T) {
	for name, g := range map[string]*dataflow.Graph{
		"fig1":       Fig1Graph(),
		"fig2":       Fig2Graph(),
		"fig2-obs":   Fig2GraphObservable(1, 1, 1),
		"fig1-param": Fig1GraphWith(9, 9, 9, 9),
		"fig2-param": Fig2GraphWith(2, 2, 2),
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestExample2ResultSpec(t *testing.T) {
	if Example2Result(10, 4, 3) != 22 || Example2Result(5, 9, 0) != 5 || Example2Result(5, 9, -1) != 5 {
		t.Error("Example2Result formula wrong")
	}
}
