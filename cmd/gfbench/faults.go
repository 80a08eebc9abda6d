package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/rt"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// expE17 exercises the cancellation and fault model (DESIGN.md §9) as a
// matrix of scenarios: each row injects one failure mode into one runtime and
// checks that the run stops with the right error class, returns partial
// statistics, and never wedges a worker pool. The scenarios mirror the
// guarantees the library documents rather than timing-sensitive behavior, so
// the table is reproducible.
func expE17() error {
	prog, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		return err
	}
	minInit := func(n int) *multiset.Multiset {
		m := multiset.New()
		for i := 0; i < n; i++ {
			m.Add(multiset.New1(value.Int(int64((i*37 + 5) % 500))))
		}
		return m
	}

	t := telemetry.NewTable("fault-injection matrix: every failure mode stops cleanly",
		"runtime", "fault", "error class", "partial stats", "verdict")
	fail := 0
	row := func(runtime, fault, class string, partial, ok bool) {
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			fail++
		}
		t.Row(runtime, fault, class, partial, verdict)
	}

	// Gamma, parallel: injected error aborts the run with partial stats.
	boom := errors.New("injected fault")
	st, err := gamma.Run(prog, minInit(64), gamma.Options{
		Workers:       4,
		FaultInjector: func(site string, worker int) error { return boom },
	})
	row("gamma par", "injected error", "passthrough", st != nil,
		errors.Is(err, boom) && st != nil)

	// Gamma, parallel: injected panic is recovered into *rt.PanicError with
	// the reaction and worker identity, and the pool shuts down.
	var pe *rt.PanicError
	st, err = gamma.Run(prog, minInit(64), gamma.Options{
		Workers:       4,
		FaultInjector: func(site string, worker int) error { panic("injected panic") },
	})
	row("gamma par", "injected panic", "*rt.PanicError", st != nil,
		errors.As(err, &pe) && pe.Runtime == "gamma" && pe.Site != "" && st != nil)

	// Gamma, sequential: same recovery guarantee without the pool.
	st, err = gamma.Run(prog, minInit(64), gamma.Options{
		FaultInjector: func(site string, worker int) error { panic("injected panic") },
	})
	row("gamma seq", "injected panic", "*rt.PanicError", st != nil,
		errors.As(err, &pe) && st != nil)

	// Gamma, parallel: expired deadline classifies as ErrDeadline (and as
	// context.DeadlineExceeded) with partial stats.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	st, err = gamma.RunContext(dctx, prog, minInit(64), gamma.Options{Workers: 4})
	dcancel()
	row("gamma par", "expired deadline", "rt.ErrDeadline", st != nil,
		errors.Is(err, rt.ErrDeadline) && errors.Is(err, context.DeadlineExceeded) && st != nil)

	// Dataflow, sequential: injected panic on a vertex is recovered into
	// *rt.PanicError with the vertex identity.
	g := equiv.RandomGraph(17, 4, 24)
	res, err := dataflow.Run(g, dataflow.Options{
		FaultInjector: func(site string, pe int) error { panic("injected panic") },
	})
	row("dataflow seq", "injected panic", "*rt.PanicError", res != nil,
		errors.As(err, &pe) && pe.Runtime == "dataflow" && res != nil)

	// Dataflow, sequential: a canceled context stops the run before its
	// first firing.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	res, err = dataflow.RunContext(cctx, g, dataflow.Options{})
	row("dataflow seq", "canceled context", "rt.ErrCanceled", res != nil,
		errors.Is(err, rt.ErrCanceled) && res != nil)

	fmt.Print(t)
	fmt.Println("every failure mode returns a classified error plus partial statistics (DESIGN.md §9)")
	if fail > 0 {
		return fmt.Errorf("e17: %d scenario(s) failed", fail)
	}
	return nil
}
