package gamma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// poolCountersZero checks the documented fate of the five counters the
// work-stealing pool kept: declared, always 0.
func poolCountersZero(t *testing.T, what string, st *Stats) {
	t.Helper()
	if st.Conflicts|st.Retries|st.Steals|st.Batches|st.BackoffWaits != 0 {
		t.Errorf("%s: pool counters %d/%d/%d/%d/%d, want all 0", what,
			st.Conflicts, st.Retries, st.Steals, st.Batches, st.BackoffWaits)
	}
}

// TestStealBatchDifferential is the engine-equivalence suite of the parallel
// runtime (named for the work-stealing batch pool it was written against):
// across worker counts and seeds the sub-solution engine must reach the
// sequential engine's stable state with the same step count (the min workload
// is confluent), and its accounting must be self-consistent — the parts' steps
// and the completion pass's add up, and the pool's counters read 0.
func TestStealBatchDifferential(t *testing.T) {
	CheckCommits(t)
	p := MustProgram("min", minReaction())
	for _, workers := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			ref := intsMultiset()
			par := intsMultiset()
			for i := int64(1); i <= 200; i++ {
				ref.Add(multiset.New1(value.Int(i*13%1009 + 1)))
				par.Add(multiset.New1(value.Int(i*13%1009 + 1)))
			}
			want, err := Run(p, ref, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(p, par, Options{Workers: workers, Seed: seed})
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if !par.Equal(ref) {
				t.Fatalf("workers=%d seed=%d: stable states differ:\n par: %s\n seq: %s", workers, seed, par, ref)
			}
			if got.Steps != want.Steps {
				t.Errorf("workers=%d seed=%d: steps = %d, sequential = %d", workers, seed, got.Steps, want.Steps)
			}
			var inParts int64
			for _, n := range got.PartSteps {
				inParts += n
			}
			// Each part reduces its share to one element; the completion pass
			// reduces those.
			if len(got.PartSteps) != workers || got.Steps-inParts != int64(workers-1) {
				t.Errorf("workers=%d seed=%d: parts fired %v of %d steps", workers, seed, got.PartSteps, got.Steps)
			}
			poolCountersZero(t, fmt.Sprintf("workers=%d seed=%d", workers, seed), got)
			if got.Fired["R"] != got.Steps {
				t.Errorf("workers=%d seed=%d: fired = %d, steps = %d", workers, seed, got.Fired["R"], got.Steps)
			}
		}
	}
}

// TestStealBatchDifferentialExample1 repeats the equivalence check on the
// paper's §III-A1 program: four elements under four labels, so every part is
// stable on its own and the completion pass does all the work.
func TestStealBatchDifferentialExample1(t *testing.T) {
	CheckCommits(t)
	for _, workers := range []int{2, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			m := example1Input()
			st, err := Run(example1Program(), m, Options{Workers: workers, Seed: seed})
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if m.Len() != 1 || !m.Contains(multiset.Pair(value.Int(0), "m")) {
				t.Fatalf("workers=%d seed=%d: result = %s, want {[0,m]}", workers, seed, m)
			}
			if st.Steps != 3 {
				t.Errorf("workers=%d seed=%d: steps = %d, want 3", workers, seed, st.Steps)
			}
		}
	}
}

// TestPartitionWorkerIdentity: the part index is the worker id everywhere one
// is reported — the fault injector's argument and a recovered panic's Worker.
func TestPartitionWorkerIdentity(t *testing.T) {
	const workers = 4
	var seen [workers]atomic.Int64
	st, err := Run(tournamentProgram(6), tournamentInit(1<<10), Options{Workers: workers, Seed: 5,
		FaultInjector: func(_ string, worker int) error {
			seen[worker].Add(1)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	for id := range seen {
		// The completion pass reports as worker 0.
		if got, fired := seen[id].Load(), st.PartSteps[id]; got < fired || id > 0 && got != fired {
			t.Errorf("injector saw worker %d %d times, the part fired %d", id, got, fired)
		}
	}

	_, err = Run(tournamentProgram(6), tournamentInit(1<<10), Options{Workers: workers, Seed: 5,
		FaultInjector: func(_ string, worker int) error {
			if worker == 2 {
				panic("part 2 blew up")
			}
			return nil
		}})
	var pe *rt.PanicError
	if !errors.As(err, &pe) || pe.Worker != 2 {
		t.Fatalf("err = %v, want a *rt.PanicError from worker 2", err)
	}
}

// TestPartitionFirstErrorWins: a failing part cancels its siblings, and the run
// reports the failure, not the cancellation it induced — whichever part fails
// and however many siblings are mid-run.
func TestPartitionFirstErrorWins(t *testing.T) {
	boom := errors.New("injected")
	for failing := 0; failing < 4; failing++ {
		m := growInit()
		var fired atomic.Int64
		st, err := Run(growProgram(), m, Options{Workers: 4, Seed: 1,
			FaultInjector: func(_ string, worker int) error {
				if fired.Add(1) > 50 && worker == failing {
					return boom
				}
				return nil
			}})
		if !errors.Is(err, boom) || errors.Is(err, rt.ErrCanceled) {
			t.Fatalf("part %d failing: err = %v, want the injected fault alone", failing, err)
		}
		if st == nil || st.Steps == 0 || m.Len() != 8 || m.CheckInvariants() != nil {
			t.Fatalf("part %d failing: stats %+v, %d elements absorbed, invariants %v", failing, st, m.Len(), m.CheckInvariants())
		}
	}
}

// TestPartitionMaxStepsExact: MaxSteps is one budget shared by the parts and
// the completion pass. A diverging program stops after exactly that many
// firings; a terminating one is not stopped by a budget it fits in, even when
// the completion pass fires the last of it.
func TestPartitionMaxStepsExact(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		for _, budget := range []int64{1, 7, 1000} {
			m := growInit()
			st, err := Run(growProgram(), m, Options{Workers: workers, Seed: 3, MaxSteps: budget})
			if !errors.Is(err, ErrMaxSteps) || st.Steps != budget || m.Len() != 8 {
				t.Errorf("workers=%d MaxSteps=%d: %d steps, %d elements, err %v", workers, budget, st.Steps, m.Len(), err)
			}
		}
		const n = 300
		for _, budget := range []int64{n - 1, n - 2} {
			m := intsMultiset()
			for i := int64(0); i < n; i++ {
				m.Add(multiset.New1(value.Int(i)))
			}
			st, err := Run(MustProgram("min", minReaction()), m, Options{Workers: workers, Seed: 3, MaxSteps: budget})
			if wantErr := budget < n-1; errors.Is(err, ErrMaxSteps) != wantErr || st.Steps != budget || m.Len() != int(n-budget) {
				t.Errorf("workers=%d MaxSteps=%d on %d elements: %d steps, %d left, err %v", workers, budget, n, st.Steps, m.Len(), err)
			}
		}
	}
}

// TestPartitionStatsAccounting: ArenaBytes includes what the parts carved (a
// run whose every product is filed in a part reports more than none), Workers
// echoes the option, and Probes and Candidates are the parts' and the
// completion pass's together.
func TestPartitionStatsAccounting(t *testing.T) {
	const n = 1 << 12
	m := tournamentInit(n)
	before := m.ArenaBytes()
	st, err := Run(tournamentProgram(12), m, Options{Workers: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.Steps != n-1 || st.Probes <= st.Steps || st.Candidates < 2*st.Steps {
		t.Errorf("stats = %+v", st)
	}
	if st.ArenaBytes <= 0 || st.ArenaBytes != m.ArenaBytes()-before {
		t.Errorf("ArenaBytes = %d, the multiset's account moved by %d", st.ArenaBytes, m.ArenaBytes()-before)
	}
}

// TestPartitionReadersBlock is the reader contract of a parallel run: m's
// write session is held while its elements are out in the parts, so a reader
// that takes a lock never sees m emptied — every state it observes holds the
// token, whole.
func TestPartitionReadersBlock(t *testing.T) {
	prog, m := bounceProgram(20000)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			n := 0
			m.ForEach(func(_ multiset.Tuple, c int) bool { n += c; return true })
			if n != 1 {
				t.Errorf("a reader saw %d elements during the run, want the one token", n)
			}
			reads.Add(1)
		}
	}()
	st, err := Run(prog, m, Options{Workers: 2, Seed: 1})
	stop.Store(true)
	wg.Wait()
	if err != nil || st.Steps != 20000 || m.Len() != 1 {
		t.Fatalf("%d steps, %d elements, err %v", st.Steps, m.Len(), err)
	}
	t.Logf("%d reads completed around the run", reads.Load())
}
