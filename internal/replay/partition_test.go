package replay

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/rt"
	"repro/internal/value"
)

// tournament is the staged pairwise-min program over n scrambled values, and
// its entry-stage multiset.
func tournament(t *testing.T, stages, n int) (*gamma.Program, *multiset.Multiset) {
	t.Helper()
	src := ""
	for i := 0; i < stages; i++ {
		src += fmt.Sprintf("R%d = replace [x, 'L%d'], [y, 'L%d'] by [x, 'L%d'] if x <= y by [y, 'L%d'] else\n", i, i, i, i+1, i+1)
	}
	p, err := gammalang.ParseProgram("tournament", src)
	if err != nil {
		t.Fatal(err)
	}
	init := multiset.New()
	for i := 0; i < n; i++ {
		init.Add(multiset.Pair(value.Int(int64((i*2654435761+17)%(4*n))), "L0"))
	}
	return p, init
}

// alg1Image converts a paper graph by Algorithm 1.
func alg1Image(t *testing.T, g *dataflow.Graph) (*gamma.Program, *multiset.Multiset) {
	t.Helper()
	p, init, err := core.ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	return p, init
}

// replaysAsPrefix checks what every exit of a run owes its caller: the
// recorded schedule carries distinct sequence numbers, replays step for step
// in their order from the unsplit initial multiset, and ends exactly on m —
// so m is a prefix of a valid firing sequence, with every element accounted
// for (Len before − consumed + produced).
func replaysAsPrefix(t *testing.T, what string, p *gamma.Program, init, m *multiset.Multiset, sched *Schedule, st *gamma.Stats) *GammaResult {
	t.Helper()
	size := init.Len()
	for i, step := range sched.Steps {
		if i > 0 && step.Seq <= sched.Steps[i-1].Seq {
			t.Fatalf("%s: step %d carries seq %d after %d", what, step.Step, step.Seq, sched.Steps[i-1].Seq)
		}
		size += len(step.Produced) - len(step.Consumed)
	}
	res, err := ReplayGamma(p, init.Clone(), sched)
	if err != nil {
		t.Fatalf("%s: replay: %v", what, err)
	}
	if res.Divergence != nil || res.Steps != len(sched.Steps) {
		t.Fatalf("%s: %d of %d steps replayed: %v", what, res.Steps, len(sched.Steps), res.Divergence)
	}
	if st == nil || st.Steps != int64(len(sched.Steps)) || m.Len() != size || !res.Final.Equal(m) || m.CheckInvariants() != nil {
		t.Fatalf("%s: stats %+v for %d recorded steps; %d elements, the schedule accounts for %d; invariants %v; replay ends on m: %v",
			what, st, len(sched.Steps), m.Len(), size, m.CheckInvariants(), res.Final.Equal(m))
	}
	return res
}

// TestReplayPartitionSchedules is the linearizability argument of the
// sub-solution engine, run: the parts fire concurrently on private multisets
// and number their commits from one counter, so the recorded schedule must
// replay sequentially, in that order, on the multiset that was never split —
// on the tournament, Eq. 2 min, and the Algorithm 1 images of Example 1 and
// Example 2 (tagged operands, which Partition keeps together by tag), at
// every worker count, to the run's own stable state.
func TestReplayPartitionSchedules(t *testing.T) {
	type workload struct {
		name string
		p    *gamma.Program
		init *multiset.Multiset
	}
	var ws []workload
	add := func(name string, p *gamma.Program, init *multiset.Multiset) { ws = append(ws, workload{name, p, init}) }
	p, init := tournament(t, 10, 1<<10)
	add("tournament", p, init)
	p, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		t.Fatal(err)
	}
	init = multiset.New()
	for i := 0; i < 400; i++ {
		init.Add(multiset.New1(value.Int(int64((i*2654435761 + 19) % 1200))))
	}
	add("min", p, init)
	p, init = alg1Image(t, paper.Fig1Graph())
	add("example1", p, init)
	p, init = alg1Image(t, paper.Fig2GraphWith(9, 4, 30))
	add("example2", p, init)
	for _, w := range ws {
		for _, workers := range []int{2, 3, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				what := fmt.Sprintf("%s workers=%d seed=%d", w.name, workers, seed)
				rec := NewRecorder(KindGamma, w.p.Name)
				m := w.init.Clone()
				st, err := gamma.Run(w.p, m, gamma.Options{Workers: workers, Seed: seed, Schedule: rec})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if res := replaysAsPrefix(t, what, w.p, w.init, m, rec.Schedule(), st); !res.Stable {
					t.Errorf("%s: the replayed state is not stable", what)
				}
			}
		}
	}
}

// TestReplayPartitionEarlyExits: cancellation, a deadline, the step budget, an
// injected fault and a panic, each striking a parallel run mid-flight, leave m
// a replayable prefix with all elements accounted for: every exit absorbs the
// parts before it returns, and nothing a part committed goes unrecorded.
func TestReplayPartitionEarlyExits(t *testing.T) {
	p, init := tournament(t, 12, 1<<12)
	boom := errors.New("injected")
	const strikeAt = 700
	exits := []struct {
		name     string
		timeout  time.Duration                         // of the run's context
		strike   func(cancel context.CancelFunc) error // what firing strikeAt meets
		maxSteps int64
		want     func(err error) bool
	}{
		{name: "cancel", timeout: time.Minute, strike: func(cancel context.CancelFunc) error { cancel(); return nil },
			want: func(err error) bool { return errors.Is(err, rt.ErrCanceled) }},
		// The firing sleeps through the deadline.
		{name: "deadline", timeout: 40 * time.Millisecond,
			strike: func(context.CancelFunc) error { time.Sleep(50 * time.Millisecond); return nil },
			want:   func(err error) bool { return errors.Is(err, rt.ErrDeadline) }},
		{name: "max steps", timeout: time.Minute, maxSteps: strikeAt,
			want: func(err error) bool { return errors.Is(err, gamma.ErrMaxSteps) }},
		{name: "fault", timeout: time.Minute, strike: func(context.CancelFunc) error { return boom },
			want: func(err error) bool { return errors.Is(err, boom) }},
		{name: "panic", timeout: time.Minute, strike: func(context.CancelFunc) error { panic("kaboom") },
			want: func(err error) bool { var pe *rt.PanicError; return errors.As(err, &pe) }},
	}
	for _, workers := range []int{2, 4} {
		for _, exit := range exits {
			what := fmt.Sprintf("%s workers=%d", exit.name, workers)
			rec := NewRecorder(KindGamma, p.Name)
			m := init.Clone()
			ctx, cancel := context.WithTimeout(context.Background(), exit.timeout)
			opt := gamma.Options{Workers: workers, Seed: 11, Schedule: rec, MaxSteps: exit.maxSteps}
			if exit.strike != nil {
				var fired atomic.Int64
				opt.FaultInjector = func(string, int) error {
					if fired.Add(1) >= strikeAt {
						return exit.strike(cancel)
					}
					return nil
				}
			}
			st, err := gamma.RunContext(ctx, p, m, opt)
			cancel()
			if !exit.want(err) {
				t.Fatalf("%s: err = %v", what, err)
			}
			sched := rec.Schedule()
			if n := len(sched.Steps); n == 0 || n >= init.Len()-1 {
				t.Fatalf("%s: %d steps recorded, want a run stopped mid-flight", what, n)
			}
			replaysAsPrefix(t, what, p, init, m, sched, st)
		}
	}
}
