package equiv

import (
	"context"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/paper"
)

// TestEngineDifferentialGoldens cross-checks both dataflow engines on the
// paper's figures — the workloads whose expected outputs are pinned elsewhere
// in the suite, so an agreement here is an agreement on known-correct values.
func TestEngineDifferentialGoldens(t *testing.T) {
	goldens := map[string]func() *dataflow.Graph{
		"fig1":            paper.Fig1Graph,
		"fig1-negative":   func() *dataflow.Graph { return paper.Fig1GraphWith(-7, 5, 3, -2) },
		"fig2":            paper.Fig2Graph,
		"fig2-observable": func() *dataflow.Graph { return paper.Fig2GraphObservable(10, 4, 3) },
		"fig2-else":       func() *dataflow.Graph { return paper.Fig2GraphWith(1, 4, 3) },
	}
	for name, build := range goldens {
		if err := CrossCheckEngines(context.Background(), build(), 10_000); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestEngineDifferentialRandom property-tests the two engines against each
// other over seeded random graphs: 200 seeds of varying size, run under the
// race detector by make stress. Every 10th seed additionally runs the full
// dataflow-vs-Gamma equivalence check with the matrix engine on the dataflow
// side, tying the matrix engine into the paper's central claim rather than just
// into the other engines.
func TestEngineDifferentialRandom(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	ctx := context.Background()
	for seed := 0; seed < seeds; seed++ {
		g := RandomGraph(int64(seed), 2+seed%3, 4+seed%17)
		if err := CrossCheckEngines(ctx, g, 100_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed%10 != 0 {
			continue
		}
		rep, err := Check(g, Options{DataflowEngine: dataflow.EngineMatrix, MaxSteps: 100_000})
		if err != nil {
			t.Fatalf("seed %d: matrix-vs-gamma check: %v", seed, err)
		}
		if !rep.Equivalent {
			t.Fatalf("seed %d: matrix engine not equivalent to gamma: %v", seed, rep.Mismatches)
		}
	}
}
