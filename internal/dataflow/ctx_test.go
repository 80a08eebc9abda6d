package dataflow

import (
	"context"
	"errors"
	"fmt"
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
	for _, workers := range []int{1, 4} {
		res, err := Run(buildFig1(1, 5, 3, 2), Options{
			Workers:       workers,
			FaultInjector: func(site string, pe int) error { panic("kaboom") },
		})
		var perr *rt.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("workers=%d: err = %v (%T), want *rt.PanicError", workers, err, err)
		}
		if perr.Runtime != "dataflow" || perr.Site == "" {
			t.Errorf("workers=%d: panic identity = %q/%q", workers, perr.Runtime, perr.Site)
		}
		if res == nil {
			t.Errorf("workers=%d: partial Result missing", workers)
		}
	}
}

func TestMaxFiringsClassified(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := Run(buildSpinner(), Options{Workers: workers, MaxFirings: 100})
		if !errors.Is(err, ErrMaxFirings) || !errors.Is(err, rt.ErrMaxSteps) {
			t.Errorf("workers=%d: err = %v, want ErrMaxFirings ⊂ rt.ErrMaxSteps", workers, err)
		}
		if res == nil {
			t.Errorf("workers=%d: partial Result missing", workers)
		}
	}
}

// TestRunContextJudgesSpecBeforeContext: under a context that is already done,
// an unknown engine or an invalid graph is still rt.ErrInvalid with no Result,
// and the early Result of a good spec echoes the PE count the chosen engine
// would have used — 1 under the matrix engine, whatever Workers says.
func TestRunContextJudgesSpecBeforeContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	invalid := NewGraph("invalid")
	invalid.AddCopy("dangling")
	for _, tc := range []struct {
		name    string
		g       *Graph
		opt     Options
		want    error
		workers int // of the early Result; 0: no Result
	}{
		{"unknown engine", buildFig1(1, 5, 3, 2), Options{Engine: "bogus"}, rt.ErrInvalid, 0},
		{"unknown engine, workers", buildFig1(1, 5, 3, 2), Options{Engine: "bogus", Workers: 4}, rt.ErrInvalid, 0},
		{"invalid graph", invalid, Options{}, rt.ErrInvalid, 0},
		{"invalid graph, matrix", invalid, Options{Engine: EngineMatrix}, rt.ErrInvalid, 0},
		{"sequential", buildFig1(1, 5, 3, 2), Options{}, rt.ErrCanceled, 1},
		{"sequential, workers 1", buildFig1(1, 5, 3, 2), Options{Workers: 1}, rt.ErrCanceled, 1},
		{"pool", buildFig1(1, 5, 3, 2), Options{Workers: 4}, rt.ErrCanceled, 4},
		{"matrix", buildFig1(1, 5, 3, 2), Options{Engine: EngineMatrix}, rt.ErrCanceled, 1},
		{"matrix, workers", buildFig1(1, 5, 3, 2), Options{Engine: EngineMatrix, Workers: 4}, rt.ErrCanceled, 1},
	} {
		res, err := RunContext(ctx, tc.g, tc.opt)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		switch {
		case tc.workers == 0 && res != nil:
			t.Errorf("%s: a rejected spec returned a Result: %+v", tc.name, res)
		case tc.workers != 0 && (res == nil || res.Workers != tc.workers || res.Firings != 0 || res.Outputs == nil || len(res.PerNode()) != 0):
			t.Errorf("%s: early Result = %+v, want Workers %d and no work", tc.name, res, tc.workers)
		}
	}
}
