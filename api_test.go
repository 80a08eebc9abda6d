package gammaflow

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/gamma"
)

// TestContextAPIAcrossModels pins the facade contract: the same RunConfig
// drives both models, expired contexts classify identically, and partial
// statistics are always returned on early exit.
func TestContextAPIAcrossModels(t *testing.T) {
	g, err := CompileSource("ex1", `
	    int x = 1; int y = 5; int k = 3; int j = 2; int m;
	    m = (x + y) - (k * j);`)
	if err != nil {
		t.Fatal(err)
	}
	prog, init, err := ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()

	cfg := RunConfig{RunSpec: RunSpec{Workers: 2, MaxSteps: 1000}}
	res, gerr := RunGraphContext(ctx, g, GraphOptions{RunConfig: cfg})
	if !errors.Is(gerr, ErrDeadline) || !errors.Is(gerr, context.DeadlineExceeded) {
		t.Errorf("graph err = %v, want ErrDeadline", gerr)
	}
	if res == nil {
		t.Error("graph early exit must return a partial result")
	}
	st, perr := RunProgramContext(ctx, prog, init, ProgramOptions{RunConfig: cfg})
	if !errors.Is(perr, ErrDeadline) || !errors.Is(perr, context.DeadlineExceeded) {
		t.Errorf("program err = %v, want ErrDeadline", perr)
	}
	if st == nil {
		t.Error("program early exit must return partial stats")
	}
}

// TestBackgroundWrappersStillWork checks the non-context names remain thin
// wrappers with identical behavior.
func TestBackgroundWrappersStillWork(t *testing.T) {
	g, err := CompileSource("ex1", `
	    int x = 1; int y = 5; int k = 3; int j = 2; int m;
	    m = (x + y) - (k * j);`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGraph(g, GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Output("m"); !ok || v.String() != "0" {
		t.Errorf("m = %v (%v), want 0", v, ok)
	}
	prog, init, err := ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(prog, init, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeFaultInjection checks the fault hook and typed panic error are
// reachable through the facade types alone.
func TestFacadeFaultInjection(t *testing.T) {
	prog, err := ParseProgram("min", "R = replace (x, y) by x where x < y")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMultiset()
	for i := int64(1); i <= 16; i++ {
		m.Add(ScalarElem(Int(i * 3 % 17)))
	}
	st, err := RunProgram(prog, m, ProgramOptions{
		RunConfig:     RunConfig{RunSpec: RunSpec{Workers: 2}},
		FaultInjector: func(site string, worker int) error { panic("injected") },
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if st == nil {
		t.Error("partial stats missing")
	}
}

// TestParseErrorsClassified checks ErrParse reaches facade callers.
func TestParseErrorsClassified(t *testing.T) {
	if _, err := ParseProgram("bad", "replace"); !errors.Is(err, ErrParse) {
		t.Errorf("gamma parse error = %v, want ErrParse", err)
	}
	if _, err := CompileSource("bad", "int = ;"); !errors.Is(err, ErrParse) {
		t.Errorf("compiler parse error = %v, want ErrParse", err)
	}
}

// TestRunSpecDrivesTheFacade pins the serving-era options plumbing: the
// serializable RunSpec (the gammad wire struct) is the single source of the
// engine, timeout and budget knobs for in-process runs too.
func TestRunSpecDrivesTheFacade(t *testing.T) {
	g, err := CompileSource("ex1", `
	    int x = 1; int y = 5; int k = 3; int j = 2; int m;
	    m = (x + y) - (k * j);`)
	if err != nil {
		t.Fatal(err)
	}
	prog, init, err := ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown engines are rejected before any execution.
	bad := ProgramOptions{RunConfig: RunConfig{RunSpec: RunSpec{Engine: "quantum"}}}
	if _, err := RunProgramContext(context.Background(), prog, init.Clone(), bad); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown engine: err = %v, want ErrInvalid", err)
	}
	// MapMultiset runs graph instances under the same spec check as RunGraph.
	for _, spec := range []RunSpec{{Engine: "quantum"}, {Workers: -1}} {
		gopt := GraphOptions{RunConfig: RunConfig{RunSpec: spec}}
		if _, err := MapMultiset(prog.Reactions[0], init.Clone(), gopt); !errors.Is(err, ErrInvalid) {
			t.Errorf("MapMultiset with spec %+v: err = %v, want ErrInvalid", spec, err)
		}
	}

	// EngineSeq forces the deterministic interpreter even with Workers set;
	// the run must still reach the stable state.
	seq := ProgramOptions{RunConfig: RunConfig{RunSpec: RunSpec{Engine: EngineSeq, Workers: 8, MaxSteps: 1000}}}
	m := init.Clone()
	if _, err := RunProgramContext(context.Background(), prog, m, seq); err != nil {
		t.Fatalf("EngineSeq run: %v", err)
	}

	// TimeoutMS behaves like a context deadline: same class, same context
	// sentinel, partial stats. A counter program never stabilizes, so the
	// deadline is guaranteed to be what stops it.
	counter, err := ParseProgram("counter", `R = replace [x, 'G'] by [x + 1, 'G']`)
	if err != nil {
		t.Fatal(err)
	}
	work := NewMultiset(PairElem(Int(0), "G"))
	slow := ProgramOptions{RunConfig: RunConfig{RunSpec: RunSpec{TimeoutMS: 20}}}
	st, err := RunProgramContext(context.Background(), counter, work, slow)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("TimeoutMS expiry: err = %v, want ErrDeadline", err)
	}
	if st == nil {
		t.Error("TimeoutMS expiry must return partial stats")
	}
}

// TestOptionsCensus pins the settable fields of every options struct to a
// literal list, each entry naming who sets the field outside tests and
// examples. A new knob fails here until its line, and so its production
// caller, is in the diff.
func TestOptionsCensus(t *testing.T) {
	for _, c := range []struct {
		opts any
		want []string
	}{
		{gamma.Options{}, []string{
			"Workers",       // gammarun -workers; wire spec.workers (service); bench gamma_tournament_par
			"Seed",          // gammarun -seed; wire spec.seed (service)
			"MaxSteps",      // gammarun -maxsteps; wire spec.max_steps and the tenant step budget (service)
			"FullScan",      // gammarun -fullscan, the wake-policy reference (ROADMAP 8b)
			"FaultInjector", // ProgramOptions.FaultInjector, the stress suites' fault hook
			"Recorder",      // -trace/-metrics/-metrics-addr (internal/cli); traced runs (service)
			"Schedule",      // gammarun -profile and -trace-format schedule|dot; traced runs (service)
		}},
		{dataflow.Options{}, []string{
			"Workers",       // no production setter: ignored (one core per run); bench/layers.go still sets it
			"Engine",        // no production setter; bench/ still sets it
			"MaxFirings",    // dfrun -maxfirings; wire spec.max_steps (service)
			"FaultInjector", // GraphOptions.FaultInjector, the stress suites' fault hook
			"Recorder",      // -trace/-metrics/-metrics-addr (internal/cli); traced runs (service)
			"Schedule",      // dfrun -profile and -trace-format schedule|dot; traced runs (service)
		}},
		{RunConfig{}, []string{
			"RunSpec",  // the wire struct itself: engine, workers, seed, max_steps, timeout_ms, trace
			"Schedule", // lowered to both engines' Schedule
		}},
		{ProgramOptions{}, []string{
			"RunConfig",
			"FaultInjector", // lowered to gamma.Options.FaultInjector
		}},
		{GraphOptions{}, []string{
			"RunConfig",
			"FaultInjector", // lowered to dataflow.Options.FaultInjector
		}},
	} {
		typ := reflect.TypeOf(c.opts)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields = %v, want %v: name the new field's production setter here, or delete the one that lost its last", typ, got, c.want)
		}
	}
}
