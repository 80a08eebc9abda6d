package gammaflow

// End-to-end pipeline tests over the testdata fixtures: source → dataflow →
// Gamma → back, with every stage's invariants checked. These are the
// integration tests a downstream user's workflow would exercise.

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/paper"
)

func readFixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPipelineSources runs every .vn fixture through the full conversion
// pipeline and checks the expected outputs in all three execution forms
// (dataflow, converted Gamma, reconstructed dataflow).
func TestPipelineSources(t *testing.T) {
	cases := map[string]map[string]int64{
		"affine.vn":     {"y": 49},
		"sumsquares.vn": {"s": 385},
		"gcd.vn":        {"r": -21}, // -(252%105) + 105%42 = -42 + 21
	}
	for name, wants := range cases {
		src := readFixture(t, name)
		g, err := CompileSource(name, src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		res, err := RunGraph(g, GraphOptions{RunConfig: RunConfig{RunSpec: RunSpec{MaxSteps: 1_000_000}}})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		for label, want := range wants {
			if got, ok := res.Output(label); !ok || got != Int(want) {
				t.Errorf("%s: dataflow %s = %v, want %d", name, label, got, want)
			}
		}
		// Full equivalence check, including firing and stuck-operand
		// correspondences.
		rep, err := CheckEquivalence(g, EquivOptions{MaxSteps: 1_000_000})
		if err != nil {
			t.Fatalf("%s: equivalence: %v", name, err)
		}
		if !rep.Equivalent {
			t.Errorf("%s: not equivalent: %v", name, rep.Mismatches)
		}
		// Gamma → dataflow reconstruction preserves the outputs.
		prog, init, err := ToGamma(g)
		if err != nil {
			t.Fatal(err)
		}
		// The emitted program type-checks under its inferred schema.
		sch, err := InferSchema(prog, init)
		if err != nil {
			t.Fatalf("%s: infer schema: %v", name, err)
		}
		if err := sch.Check(prog, init); err != nil {
			t.Errorf("%s: schema check: %v", name, err)
		}
		back, err := ProgramToGraph(name+"-back", prog, init.Clone())
		if err != nil {
			t.Fatalf("%s: reconstruct: %v", name, err)
		}
		res2, err := RunGraph(back, GraphOptions{RunConfig: RunConfig{RunSpec: RunSpec{MaxSteps: 1_000_000}}})
		if err != nil {
			t.Fatal(err)
		}
		for label, want := range wants {
			if got, ok := res2.Output(label); !ok || got != Int(want) {
				t.Errorf("%s: reconstructed %s = %v, want %d", name, label, got, want)
			}
		}
	}
}

// TestPipelineGammaFixtures executes the .gamma fixtures, including the
// staged composition, and checks the stable states.
func TestPipelineGammaFixtures(t *testing.T) {
	// minelement.gamma: the smallest of {42,7,99,3,58}.
	file, err := ParseGammaFile(readFixture(t, "minelement.gamma"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := file.Program("min")
	if err != nil {
		t.Fatal(err)
	}
	if hint, _ := AnalyzeTermination(prog); hint != TerminationGuaranteed {
		t.Errorf("min sieve should be guaranteed to terminate, got %v", hint)
	}
	m := file.Init
	if _, err := RunProgram(prog, m, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(ScalarElem(Int(3))) {
		t.Errorf("min = %s", m)
	}

	// staged.gamma: DOUBLE then SUM → {[20, 'mid']}.
	file2, err := ParseGammaFile(readFixture(t, "staged.gamma"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := file2.Plan("staged")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunPlan(plan, file2.Init, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if file2.Init.Len() != 1 || !file2.Init.Contains(PairElem(Int(20), "mid")) {
		t.Errorf("staged result = %s, want {[20, 'mid']}", file2.Init)
	}
	if stats.Steps != 7 { // 4 doubles + 3 sums
		t.Errorf("steps = %d, want 7", stats.Steps)
	}
}

// TestPipelineProfile attaches the profiler to a fixture run through the
// public API, as the analysis example does.
func TestPipelineProfile(t *testing.T) {
	g, err := CompileSource("sumsq", readFixture(t, "sumsquares.vn"))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewScheduleRecorder(ScheduleDataflow, "sumsq")
	res, err := RunGraph(g, GraphOptions{RunConfig: RunConfig{RunSpec: RunSpec{MaxSteps: 1_000_000}, Schedule: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := res.Output("s"); s != Int(385) {
		t.Errorf("s = %v", s)
	}
	r := rec.Schedule().Profile()
	if r.Work != res.Firings {
		t.Errorf("profiled work %d != firings %d", r.Work, res.Firings)
	}
	if r.Span <= 10 {
		t.Errorf("10-iteration loop should have a long span, got %d", r.Span)
	}
	// The same trace invariants hold for the converted program.
	prog, init, err := ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	recG := NewScheduleRecorder(ScheduleGamma, "sumsq")
	stats, err := RunProgram(prog, init, ProgramOptions{RunConfig: RunConfig{RunSpec: RunSpec{MaxSteps: 1_000_000}, Schedule: recG}})
	if err != nil {
		t.Fatal(err)
	}
	rG := recG.Schedule().Profile()
	if rG.Work != stats.Steps {
		t.Errorf("gamma work %d != steps %d", rG.Work, stats.Steps)
	}
	// Reaction span equals operator span: each firing maps one to one, and
	// const firings (depth 1 in the dataflow trace) shift the chain by one.
	if gSpan, dSpan := rG.Span, r.Span; gSpan != dSpan-1 {
		t.Errorf("gamma span %d, dataflow span %d, want exactly one const-depth difference", gSpan, dSpan)
	}
}

// TestLoopAllocScaling is the allocation-scaling gate of `make check-ci`:
// what one more Γ step allocates on the paper's Fig. 2 loop after Algorithm 1
// must not depend on the trip count, and a whole run must stay under an
// absolute ceiling per step. Algorithm 1 makes every edge one element, so
// every firing flips a few (label, tag) buckets between empty and non-empty;
// what a step may allocate is the arena bytes of the tuples it produces,
// ~0.25 kB. A fixed-size chunk or a fresh index list per flip (3.5 kB/step
// before the multiset recycled them) or any cost that grows with the run
// shows here, not in wall-clock noise. The gate is on marginal bytes between
// trip counts, not on bytes/steps: a run's fixed set-up (kernels, searchers)
// is a few kB, so the quotient falls with z for no reason a step is
// responsible for. The marginal may fall with z too — arena chunks double
// until they reach their maximum, so early steps carry up to twice their
// share (316 then 242 B here) — but it must never rise.
func TestLoopAllocScaling(t *testing.T) {
	const ceiling, marginalMax, flat = 1024.0, 400.0, 1.25
	var bytes, steps []float64
	for _, z := range []int64{64, 512, 4096} {
		prog, init, err := core.ToGamma(paper.Fig2GraphObservable(10, 4, z))
		if err != nil {
			t.Fatal(err)
		}
		var total, n float64
		for pass := 0; pass < 2; pass++ { // the first pass warms kernels and pools
			var a, b runtime.MemStats
			m := init.Clone()
			runtime.ReadMemStats(&a)
			st, err := gamma.Run(prog, m, gamma.Options{})
			runtime.ReadMemStats(&b)
			if err != nil || st.Steps < z {
				t.Fatalf("z=%d: %d steps, err %v", z, st.Steps, err)
			}
			total, n = float64(b.TotalAlloc-a.TotalAlloc), float64(st.Steps)
		}
		t.Logf("z=%d: %.0f B/step over %.0f steps", z, total/n, n)
		if total/n > ceiling {
			t.Errorf("z=%d: %.0f B allocated per step, ceiling %.0f", z, total/n, ceiling)
		}
		bytes, steps = append(bytes, total), append(steps, n)
	}
	prev := 0.0
	for i := 1; i < len(bytes); i++ {
		marginal := (bytes[i] - bytes[i-1]) / (steps[i] - steps[i-1])
		t.Logf("steps %.0f -> %.0f: %.0f B per extra step", steps[i-1], steps[i], marginal)
		if raceEnabled {
			continue // the whole-run ceiling above still holds; the per-step budget does not
		}
		if marginal > marginalMax || (prev > 0 && marginal > flat*prev) {
			t.Errorf("steps %.0f -> %.0f: %.0f B per extra step, want <= %.0f and <= %.2f x the %.0f before it",
				steps[i-1], steps[i], marginal, marginalMax, flat, prev)
		}
		prev = marginal
	}
}
