package equiv

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/paper"
	"repro/internal/value"
)

func TestCheckFig1(t *testing.T) {
	rep, err := Check(paper.Fig1Graph(), Options{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("not equivalent: %v", rep.Mismatches)
	}
	if rep.OperatorFirings != 3 || rep.ReactionSteps != 3 {
		t.Errorf("firing correspondence: %d vs %d, want 3 = 3", rep.OperatorFirings, rep.ReactionSteps)
	}
	if len(rep.DataflowOutputs["m"]) != 1 || rep.DataflowOutputs["m"][0].Val != value.Int(0) {
		t.Errorf("m = %v", rep.DataflowOutputs["m"])
	}
}

func TestCheckFig2BothVariants(t *testing.T) {
	for name, g := range map[string]*dataflow.Graph{
		"faithful":   paper.Fig2Graph(),
		"observable": paper.Fig2GraphObservable(10, 4, 3),
	} {
		rep, err := Check(g, Options{MaxSteps: 100000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Equivalent {
			t.Errorf("%s: not equivalent: %v", name, rep.Mismatches)
		}
		if rep.OperatorFirings != rep.ReactionSteps {
			t.Errorf("%s: firing correspondence broken: %d vs %d", name, rep.OperatorFirings, rep.ReactionSteps)
		}
	}
}

func TestCheckCompiledPrograms(t *testing.T) {
	srcs := []string{
		`int a = 3; int b = 4; int c; c = a * a + b * b;`,
		`int i; int s = 0; for (i = 6; i > 0; i--) s = s + i; output s;`,
		`int x = 5; int y; y = -x % 3;`,
	}
	for _, src := range srcs {
		g, err := compiler.Compile("prog", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		rep, err := Check(g, Options{MaxSteps: 100000})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !rep.Equivalent {
			t.Errorf("%q: not equivalent: %v", src, rep.Mismatches)
		}
	}
}

// TestAlgorithm1Equivalence is experiment E9: the equivalence holds on
// seeded random graphs of growing size, in both sequential and parallel
// execution.
func TestAlgorithm1Equivalence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		size := 4 + int(seed)%24
		g := RandomGraph(seed, 3+int(seed)%4, size)
		rep, err := Check(g, Options{MaxSteps: 100000})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, g)
		}
		if !rep.Equivalent {
			t.Errorf("seed %d: not equivalent: %v\n%s", seed, rep.Mismatches, g)
		}
	}
}

func TestAlgorithm1EquivalenceParallel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := RandomGraph(seed*100, 4, 20)
		rep, err := Check(g, Options{
			GammaWorkers: 4, GammaSeed: seed, MaxSteps: 100000,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Equivalent {
			t.Errorf("seed %d: not equivalent: %v", seed, rep.Mismatches)
		}
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	g1 := RandomGraph(7, 4, 20)
	g2 := RandomGraph(7, 4, 20)
	if g1.String() != g2.String() {
		t.Error("same seed should give the same graph")
	}
	g3 := RandomGraph(8, 4, 20)
	if g1.String() == g3.String() {
		t.Error("different seeds should differ")
	}
	if err := g1.Validate(); err != nil {
		t.Errorf("random graph invalid: %v", err)
	}
}

func TestRandomGraphAlwaysRunnable(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		g := RandomGraph(seed, 2, 30)
		if _, err := dataflow.Run(g, dataflow.Options{MaxFirings: 100000}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
