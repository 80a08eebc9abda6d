package dataflow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/value"
)

// buildSpinner builds a graph that never terminates: a const token enters a
// self-looping inctag, which recirculates it at an ever-increasing tag.
func buildSpinner() *Graph {
	g := NewGraph("spinner")
	c := g.AddConst("c", value.Int(1))
	inc := g.AddIncTag("inc")
	mustConnect(g, c, 0, inc, 0, "seed")
	mustConnect(g, inc, 0, inc, 0, "back")
	return g
}

func mustConnect(g *Graph, from NodeID, fromPort int, to NodeID, toPort int, label string) {
	if _, err := g.Connect(from, fromPort, to, toPort, label); err != nil {
		panic(err)
	}
}

func TestRunContextExpiredDeadlineDF(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
			defer cancel()
			<-ctx.Done()
			res, err := RunContext(ctx, buildFig1(1, 5, 3, 2), Options{Workers: workers})
			if !errors.Is(err, rt.ErrDeadline) {
				t.Errorf("err = %v, want rt.ErrDeadline", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v must satisfy errors.Is(_, context.DeadlineExceeded)", err)
			}
			if res == nil {
				t.Error("early exit must return a partial Result")
			}
		})
	}
}

func TestRunContextCancelMidRunDF(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := RunContext(ctx, buildSpinner(), Options{Workers: workers})
				done <- outcome{res, err}
			}()
			time.Sleep(10 * time.Millisecond) // let tokens start circulating
			start := time.Now()
			cancel()
			select {
			case o := <-done:
				if elapsed := time.Since(start); elapsed > 2*time.Second {
					t.Errorf("cancellation took %v to propagate", elapsed)
				}
				if !errors.Is(o.err, rt.ErrCanceled) || !errors.Is(o.err, context.Canceled) {
					t.Errorf("err = %v, want rt.ErrCanceled", o.err)
				}
				if o.res == nil {
					t.Fatal("canceled run must return a partial Result")
				}
				if o.res.Firings == 0 {
					t.Error("run canceled mid-flight should report the firings it made")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("canceled run wedged")
			}
		})
	}
}

func TestFaultInjectorPanicRecoveredDF(t *testing.T) {
	for _, e := range engineOptions {
		opt := e.opt
		opt.FaultInjector = func(site string, pe int) error { panic("kaboom") }
		res, err := Run(buildFig1(1, 5, 3, 2), opt)
		var perr *rt.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("%s: err = %v (%T), want *rt.PanicError", e.name, err, err)
		}
		if perr.Runtime != "dataflow" || perr.Site == "" {
			t.Errorf("%s: panic identity = %q/%q", e.name, perr.Runtime, perr.Site)
		}
		if res == nil {
			t.Errorf("%s: partial Result missing", e.name)
		}
	}
}

func TestMaxFiringsClassified(t *testing.T) {
	for _, e := range engineOptions {
		opt := e.opt
		opt.MaxFirings = 100
		res, err := Run(buildSpinner(), opt)
		if !errors.Is(err, ErrMaxFirings) || !errors.Is(err, rt.ErrMaxSteps) {
			t.Errorf("%s: err = %v, want ErrMaxFirings ⊂ rt.ErrMaxSteps", e.name, err)
		}
		if res == nil {
			t.Errorf("%s: partial Result missing", e.name)
		}
	}
}

// TestWorkersRunOnOneCore: Options.Workers is ignored. A run asking for 8
// workers starts no goroutine — the count read inside the fault injector, at
// every firing, is the count before the run — hands the injector PE index 0
// every time, and reports and records exactly what the Workers: 1 run does.
func TestWorkersRunOnOneCore(t *testing.T) {
	g := buildWide(wideInputs(64), 4)
	run := func(workers int) (*Result, []byte) {
		// An earlier test's goroutine may still be exiting (TestRunContextCancelMidRunDF's
		// runner sends its result, then returns): let it finish, for up to a
		// second, before the count is taken. A test binary idles at 2.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		before := runtime.NumGoroutine()
		var rec lineSchedule
		res, err := RunContext(context.Background(), g, Options{Workers: workers, Schedule: &rec,
			FaultInjector: func(site string, pe int) error {
				if n := runtime.NumGoroutine(); n != before || pe != 0 {
					t.Errorf("workers=%d: firing %s on PE %d with %d goroutines, %d before the run", workers, site, pe, n, before)
				}
				return nil
			}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rec.Bytes()
	}
	one, oneSched := run(1)
	eight, eightSched := run(8)
	if err := sameRun(eight, one); err != nil {
		t.Errorf("workers=8 against workers=1: %v", err)
	}
	if !bytes.Equal(eightSched, oneSched) {
		t.Errorf("workers=8 recorded a different schedule:\n%s\nworkers=1:\n%s", eightSched, oneSched)
	}
}

// lineSchedule records every firing as one line, in call order.
type lineSchedule struct{ bytes.Buffer }

func (s *lineSchedule) RecordStepEdges(seq uint64, g *Graph, v NodeID, _ time.Time, in []int32, tag int64, out []int32, outTag int64) {
	fmt.Fprintf(s, "%d %s %q %q\n", seq, g.Nodes[v].Name, tokenKeys(g, in, tag), tokenKeys(g, out, outTag))
}

// TestRunContextJudgesSpecBeforeContext: under a context that is already done,
// an unknown engine or an invalid graph is still rt.ErrInvalid with no Result,
// and a good spec returns an early Result that reports no work.
func TestRunContextJudgesSpecBeforeContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	invalid := NewGraph("invalid")
	invalid.AddCopy("dangling")
	for _, tc := range []struct {
		name  string
		g     *Graph
		opt   Options
		want  error
		early bool // an early Result, not none
	}{
		{"unknown engine", buildFig1(1, 5, 3, 2), Options{Engine: "bogus"}, rt.ErrInvalid, false},
		{"unknown engine, workers", buildFig1(1, 5, 3, 2), Options{Engine: "bogus", Workers: 4}, rt.ErrInvalid, false},
		{"invalid graph", invalid, Options{}, rt.ErrInvalid, false},
		{"invalid graph, matrix", invalid, Options{Engine: EngineMatrix}, rt.ErrInvalid, false},
		{"sequential", buildFig1(1, 5, 3, 2), Options{}, rt.ErrCanceled, true},
		{"sequential, workers 4", buildFig1(1, 5, 3, 2), Options{Workers: 4}, rt.ErrCanceled, true},
		{"matrix", buildFig1(1, 5, 3, 2), Options{Engine: EngineMatrix}, rt.ErrCanceled, true},
		{"matrix, workers", buildFig1(1, 5, 3, 2), Options{Engine: EngineMatrix, Workers: 4}, rt.ErrCanceled, true},
	} {
		rec := &recSchedule{}
		tc.opt.Schedule = rec
		res, err := RunContext(ctx, tc.g, tc.opt)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		switch {
		case !tc.early && res != nil:
			t.Errorf("%s: a rejected spec returned a Result: %+v", tc.name, res)
		case tc.early && (res == nil || res.Firings != 0 || res.Outputs == nil || len(rec.perName) != 0):
			t.Errorf("%s: early Result = %+v, want no work", tc.name, res)
		}
	}
}
