package gamma

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// growProgram never stabilizes: [x, 'a'] -> [x + 1, 'a'].
func growProgram() *Program {
	return MustProgram("grow", &Reaction{
		Name:     "Grow",
		Patterns: []Pattern{{FVar("x"), FLabel("a")}},
		Branches: []Branch{{
			Products: []Template{{expr.MustParse("x + 1"), expr.MustParse("'a'")}},
		}},
	})
}

func growInit() *multiset.Multiset {
	m := multiset.New()
	for i := 0; i < 8; i++ {
		m.Add(multiset.Pair(value.Int(int64(i)), "a"))
	}
	return m
}

func TestRunContextExpiredDeadline(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
			defer cancel()
			<-ctx.Done()
			st, err := RunContext(ctx, growProgram(), growInit(), Options{Workers: workers})
			if !errors.Is(err, rt.ErrDeadline) {
				t.Errorf("err = %v, want rt.ErrDeadline", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v must satisfy errors.Is(_, context.DeadlineExceeded)", err)
			}
			if st == nil {
				t.Error("early exit must return partial Stats")
			}
		})
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type outcome struct {
				st  *Stats
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				st, err := RunContext(ctx, growProgram(), growInit(), Options{Workers: workers})
				done <- outcome{st, err}
			}()
			time.Sleep(10 * time.Millisecond) // let the run get going
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
				if o.st == nil {
					t.Fatal("canceled run must return partial Stats")
				}
				if o.st.Steps == 0 {
					t.Error("run canceled mid-flight should report the steps it made")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("canceled run wedged")
			}
		})
	}
}

func TestFaultInjectorError(t *testing.T) {
	boom := errors.New("injected")
	for _, workers := range []int{1, 4} {
		st, err := Run(growProgram(), growInit(), Options{
			Workers:       workers,
			FaultInjector: func(site string, worker int) error { return boom },
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want injected fault", workers, err)
		}
		if st == nil {
			t.Errorf("workers=%d: partial Stats missing", workers)
		}
	}
}

func TestFaultInjectorPanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		st, err := Run(growProgram(), growInit(), Options{
			Workers:       workers,
			FaultInjector: func(site string, worker int) error { panic("kaboom") },
		})
		var pe *rt.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *rt.PanicError", workers, err, err)
		}
		if pe.Runtime != "gamma" || pe.Site != "Grow" {
			t.Errorf("workers=%d: panic identity = %q/%q", workers, pe.Runtime, pe.Site)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: stack not captured", workers)
		}
		if st == nil {
			t.Errorf("workers=%d: partial Stats missing", workers)
		}
	}
}

// TestPanicDoesNotWedgePool runs many parallel executions where a worker
// panics at a pseudo-random point mid-run; every run must terminate (no
// leaked lock, no deadlocked termination detector) and classify the panic.
func TestPanicDoesNotWedgePool(t *testing.T) {
	var n atomic.Int64
	for i := 0; i < 25; i++ {
		_, err := Run(growProgram(), growInit(), Options{
			Workers:  4,
			Seed:     int64(i),
			MaxSteps: 10_000,
			FaultInjector: func(site string, worker int) error {
				if n.Add(1)%17 == 0 {
					panic("random worker death")
				}
				return nil
			},
		})
		var pe *rt.PanicError
		if err != nil && !errors.As(err, &pe) && !errors.Is(err, ErrMaxSteps) {
			t.Fatalf("iteration %d: unexpected error %v", i, err)
		}
	}
}

// TestRetriesCounted pins what is left of the commit-conflict accounting: the
// sub-solution engine has no optimistic commit to lose, so under the workload
// that used to contend hardest Conflicts, Retries and the other pool counters
// stay 0, as Stats documents.
func TestRetriesCounted(t *testing.T) {
	p := MustProgram("min", &Reaction{
		Name:     "Min",
		Patterns: []Pattern{{FVar("x")}, {FVar("y")}},
		Branches: []Branch{{
			Cond:     expr.MustParse("x < y"),
			Products: []Template{{expr.MustParse("x")}},
		}},
	})
	for seed := int64(0); seed < 10; seed++ {
		m := multiset.New()
		for i := 0; i < 400; i++ {
			m.Add(multiset.New1(value.Int(int64(i))))
		}
		st, err := Run(p, m, Options{Workers: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		poolCountersZero(t, fmt.Sprintf("seed %d", seed), st)
	}
}
