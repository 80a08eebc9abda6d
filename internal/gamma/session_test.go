package gamma

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// bounceProgram moves one token [k, label, k] back and forth between labels O
// and Q until k reaches steps: a sequential run of exactly that many firings
// over a multiset that stays one element long, in a different shard after
// every step.
func bounceProgram(steps int) (*Program, *multiset.Multiset) {
	bounce := func(from, to string) *Reaction {
		return &Reaction{
			Name:     from + "->" + to,
			Patterns: []Pattern{{FVar("k"), FLabel(from), FVar("t")}},
			Branches: []Branch{{Cond: expr.Binary{Op: "<", L: expr.Var{Name: "k"}, R: expr.Lit{Val: value.Int(int64(steps))}},
				Products: []Template{{expr.MustParse("k + 1"), lit(to), expr.MustParse("t + 1")}}}},
		}
	}
	return MustProgram("bounce", bounce("O", "Q"), bounce("Q", "O")), multiset.New(multiset.IntElem(0, "O", 0))
}

// TestSessionReadersProgress: the sequential engine holds every shard's write
// lock for sessionProbes probes at a time, so a reader has to get in between
// two sessions — and does: goroutines calling Count, ForEach, String and the
// all-shard invariants walk in a loop during a 10⁵-step run each complete
// calls while it lasts, and every state they observe is one between two
// firings (Len equals the sum of counts; exactly one token).
func TestSessionReadersProgress(t *testing.T) {
	const steps = 100000
	prog, m := bounceProgram(steps)
	var stop atomic.Bool
	var wg sync.WaitGroup
	reads := make([]atomic.Int64, 4)
	readers := []func(){
		func() { m.Count(multiset.IntElem(0, "O", 0)) },
		func() { m.ForEach(func(multiset.Tuple, int) bool { return true }) },
		func() { _ = m.String() },
		func() {
			if err := m.CheckInvariants(); err != nil || m.Len() != 1 {
				t.Errorf("reader saw an inconsistent state: Len %d, %v", m.Len(), err)
			}
		},
	}
	for i, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				read()
				reads[i].Add(1)
			}
		}()
	}
	st, err := Run(prog, m, Options{})
	during := make([]int64, len(reads))
	for i := range reads {
		during[i] = reads[i].Load()
	}
	stop.Store(true)
	wg.Wait()
	if err != nil || st.Steps != steps || !m.Contains(multiset.IntElem(steps, "O", steps)) {
		t.Fatalf("%d steps, err %v, final %s", st.Steps, err, m)
	}
	for i, n := range during {
		if n < 2 {
			t.Errorf("reader %d completed %d calls during the %d-step run, want progress", i, n, steps)
		}
	}
	t.Logf("reads completed during the run: %v", during)
}

// TestSessionReleasedOnEveryExit: whatever ends a sequential run — the stable
// state, cancellation, the step budget, an injected fault, a panic out of a
// reaction condition — its write session ends with it: a reader and a writer
// on the multiset return afterwards.
func TestSessionReleasedOnEveryExit(t *testing.T) {
	boom := errors.New("injected")
	canceled, cancel := context.WithCancel(context.Background())
	exits := []struct {
		name string
		ctx  context.Context
		opt  Options
		arm  func(p *Program)
		want func(err error) bool
	}{
		{name: "stable", ctx: context.Background(), want: func(err error) bool { return err == nil }},
		{name: "cancel", ctx: canceled, want: func(err error) bool { return errors.Is(err, rt.ErrCanceled) },
			opt: Options{FaultInjector: func(string, int) error { cancel(); return nil }}},
		{name: "max steps", ctx: context.Background(), opt: Options{MaxSteps: 1500},
			want: func(err error) bool { return errors.Is(err, ErrMaxSteps) }},
		{name: "fault", ctx: context.Background(), want: func(err error) bool { return errors.Is(err, boom) },
			opt: Options{FaultInjector: func(string, int) error { return boom }}},
		{name: "panic", ctx: context.Background(),
			arm: func(p *Program) {
				k := p.Reactions[0].kernel()
				cond, evals := k.branches[0].cond, 0
				k.branches[0].cond = func(env []value.Value) (bool, error) {
					if evals++; evals == 1200 { // past the first session boundary
						panic("condition blew up")
					}
					return cond(env)
				}
			},
			want: func(err error) bool { var pe *rt.PanicError; return errors.As(err, &pe) }},
	}
	for _, exit := range exits {
		prog, m := bounceProgram(3000)
		if exit.arm != nil {
			exit.arm(prog)
		}
		if _, err := RunContext(exit.ctx, prog, m, exit.opt); !exit.want(err) {
			t.Errorf("%s: err = %v", exit.name, err)
		}
		done := make(chan int)
		go func() {
			m.Add(multiset.New1(value.Int(0)))
			done <- m.Count(multiset.New1(value.Int(0)))
		}()
		select {
		case n := <-done:
			if n != 1 || m.CheckInvariants() != nil {
				t.Errorf("%s: Count = %d after the run, invariants %v", exit.name, n, m.CheckInvariants())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Add and Count after the run blocked: the write session leaked", exit.name)
		}
	}
}
