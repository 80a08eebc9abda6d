package gamma

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/multiset"
	"repro/internal/value"
)

func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	d := newDeque(8)
	for i := int32(0); i < 5; i++ {
		d.push(i)
	}
	if d.size() != 5 {
		t.Fatalf("size = %d, want 5", d.size())
	}
	if x, ok := d.steal(); !ok || x != 0 {
		t.Fatalf("steal = %d,%v, want oldest 0", x, ok)
	}
	if x, ok := d.pop(); !ok || x != 4 {
		t.Fatalf("pop = %d,%v, want newest 4", x, ok)
	}
	for _, want := range []int32{3, 2, 1} {
		if x, ok := d.pop(); !ok || x != want {
			t.Fatalf("pop = %d,%v, want %d", x, ok, want)
		}
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque succeeded")
	}
	if d.size() != 0 {
		t.Fatalf("size = %d after drain, want 0", d.size())
	}
}

func TestDequeCapacityAndOverflow(t *testing.T) {
	for _, tc := range []struct{ want, cap int }{{1, 0}, {1, 1}, {4, 3}, {8, 8}, {16, 9}} {
		if d := newDeque(tc.cap); len(d.buf) != tc.want {
			t.Errorf("newDeque(%d) capacity = %d, want %d", tc.cap, len(d.buf), tc.want)
		}
	}
	d := newDeque(2)
	d.push(0)
	d.push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("push past capacity did not panic")
		}
	}()
	d.push(2)
}

// TestStealDequeConcurrent churns one owner (push/pop) against several
// thieves and checks that every pushed value is taken exactly once — the
// deque's only correctness obligation. Run under -race by make stress.
func TestStealDequeConcurrent(t *testing.T) {
	const n = 20000
	const thieves = 4
	d := newDeque(n)
	var stop atomic.Bool
	stolen := make([][]int32, thieves)
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for !stop.Load() {
				if x, ok := d.steal(); ok {
					stolen[th] = append(stolen[th], x)
				}
			}
		}(th)
	}
	var owned []int32
	for i := int32(0); i < n; i++ {
		d.push(i)
		if i%3 == 0 {
			if x, ok := d.pop(); ok {
				owned = append(owned, x)
			}
		}
	}
	for {
		x, ok := d.pop()
		if !ok {
			break
		}
		owned = append(owned, x)
	}
	stop.Store(true)
	wg.Wait()
	seen := make([]int, n)
	for _, x := range owned {
		seen[x]++
	}
	for _, batch := range stolen {
		for _, x := range batch {
			seen[x]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("value %d taken %d times, want exactly once", v, c)
		}
	}
}

// TestStealVictimOrderDeterministic pins the steal scheduler's rng contract:
// for a fixed seed the victim sequence is reproducible, and each sweep visits
// every peer exactly once (no worker is ever starved of being stolen from).
func TestStealVictimOrderDeterministic(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	var bufA, bufB []int
	const self, workers = 2, 8
	for round := 0; round < 100; round++ {
		bufA = victimOrder(rngA, self, workers, bufA)
		bufB = victimOrder(rngB, self, workers, bufB)
		if len(bufA) != workers-1 || len(bufB) != workers-1 {
			t.Fatalf("round %d: order lengths %d/%d, want %d", round, len(bufA), len(bufB), workers-1)
		}
		seen := map[int]bool{}
		for i, v := range bufA {
			if v != bufB[i] {
				t.Fatalf("round %d: same seed diverged: %v vs %v", round, bufA, bufB)
			}
			if v == self || v < 0 || v >= workers || seen[v] {
				t.Fatalf("round %d: bad victim %d in %v", round, v, bufA)
			}
			seen[v] = true
		}
	}
	if got := victimOrder(rngA, 0, 1, nil); len(got) != 0 {
		t.Fatalf("single worker has victims %v, want none", got)
	}
}

// TestStealBatchDifferential is the engine-equivalence suite for the
// work-stealing batch runtime: across worker counts and seeds, the parallel
// incremental engine must reach the sequential engine's stable state with the
// same step count (the min workload is confluent), and its new accounting
// must be self-consistent — every step belongs to a batch, batches never
// exceed steps, and claims lost to peers show up as conflicts, not silence.
func TestStealBatchDifferential(t *testing.T) {
	CheckCommits(t)
	p := MustProgram("min", minReaction())
	for _, workers := range []int{2, 4, 8} {
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
			if got.Batches == 0 || got.Batches > got.Steps {
				t.Errorf("workers=%d seed=%d: batches = %d with steps = %d", workers, seed, got.Batches, got.Steps)
			}
			if got.Fired["R"] != got.Steps {
				t.Errorf("workers=%d seed=%d: fired = %d, steps = %d", workers, seed, got.Fired["R"], got.Steps)
			}
		}
	}
}

// TestStealBatchDifferentialExample1 repeats the equivalence check on the
// paper's §III-A1 program, whose three labeled reactions exercise the
// subscription wakeup path through the per-worker deques.
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
