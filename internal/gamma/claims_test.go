package gamma

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// batchFirings matches up to batchMaxFirings firings of r on m under one read
// session exactly as tryFireBatch does — one searcher, claims kept between
// searches — and returns them as deltas.
func batchFirings(t *testing.T, r *Reaction, m *multiset.Multiset, rng *rand.Rand) []multiset.Delta {
	t.Helper()
	k := r.kernel()
	s := newSearcher(r, new(multiset.View))
	s.begin(m, rng)
	m.LockView(s.view, k.viewSyms, k.viewAll)
	var ds []multiset.Delta
	for len(ds) < batchMaxFirings && s.search(0) {
		_, prods, err := k.produceInto(r.Name, s.branch, s.env, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, multiset.Delta{
			Consume: append([]multiset.Tuple(nil), s.chosen...),
			Refs:    append([]multiset.Ref(nil), s.refs()...),
			Produce: prods,
		})
		s.nextInBatch()
	}
	if s.err != nil {
		t.Fatal(s.err)
	}
	s.view.Unlock()
	return ds
}

// batchFiringsOracle is batchFirings on the interpreted matcher with the claim
// tracker the kernel replaced: a map[string]int of claimed occurrences, kept
// across the batch's searches. rng must be seeded like the kernel's so each
// search walks the multiset from the same rotation.
func batchFiringsOracle(t *testing.T, r *Reaction, m *multiset.Multiset, rng *rand.Rand) []multiset.Delta {
	t.Helper()
	used := make(map[string]int)
	var ds []multiset.Delta
	for len(ds) < batchMaxFirings {
		var cands []multiset.Counted
		m.IterAllRot(rng.Uint64(), func(tp multiset.Tuple, n int, key string) bool {
			cands = append(cands, multiset.Counted{Tuple: tp, N: n, Key: key})
			return true
		})
		s := &oracleSearcher{r: r, rotCands: cands, env: make(expr.MapEnv), used: used,
			chosen: make([]multiset.Tuple, len(r.Patterns))}
		if !s.search(0) {
			if s.err != nil {
				t.Fatal(s.err)
			}
			break
		}
		prods, err := r.produce(s.branch, s.env)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, multiset.Delta{Consume: s.chosen, Produce: prods})
	}
	return ds
}

// TestClaimTrackerMatchesMapReference is the claim tracker's differential:
// on reactions whose matches are decided by multiplicity — the same variable
// in two patterns over elements present once, twice or three times; three
// patterns over two distinct keys; Eq. 2 over duplicates — a batch of up to
// eight firings under one view must choose exactly what the map-tracked
// reference chooses, and commit to the same multiset.
func TestClaimTrackerMatchesMapReference(t *testing.T) {
	one := func(name string) Pattern { return Pattern{FVar(name)} }
	reactions := []*Reaction{
		{Name: "same", Patterns: []Pattern{one("x"), one("x")},
			Branches: []Branch{{Products: []Template{{expr.MustParse("x + 100")}}}}},
		{Name: "triple", Patterns: []Pattern{one("x"), one("y"), one("z")},
			Branches: []Branch{{Cond: expr.MustParse("x <= y and y <= z"), Products: []Template{{expr.MustParse("x")}}}}},
		minReaction(),
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := reactions[seed%int64(len(reactions))]
		distinct := 2
		if r.Name != "triple" {
			distinct += rng.Intn(5)
		}
		init := multiset.New()
		for i := 0; i < distinct; i++ {
			init.AddN(multiset.New1(value.Int(int64(rng.Intn(50)))), 1+rng.Intn(3))
		}
		got := batchFirings(t, r, init, rand.New(rand.NewSource(seed)))
		want := batchFiringsOracle(t, r, init, rand.New(rand.NewSource(seed)))
		if len(got) != len(want) {
			t.Fatalf("seed %d: %s on %s: %d firings, reference %d", seed, r.Name, init, len(got), len(want))
		}
		for i := range want {
			for j := range want[i].Consume {
				if !got[i].Consume[j].Equal(want[i].Consume[j]) {
					t.Fatalf("seed %d: %s on %s: firing %d chose %v, reference %v",
						seed, r.Name, init, i, got[i].Consume, want[i].Consume)
				}
			}
		}
		gm, wm := init, init.Clone() // handles commit only to the multiset that issued them
		gApplied, wApplied := make([]bool, len(got)), make([]bool, len(want))
		gm.ApplyDeltas(got, gApplied, nil, nil)
		wm.ApplyDeltas(want, wApplied, nil, nil)
		if fmt.Sprint(gApplied) != fmt.Sprint(wApplied) || !gm.Equal(wm) || gm.CheckInvariants() != nil {
			t.Fatalf("seed %d: %s on %s: commit %v -> %s, reference %v -> %s",
				seed, r.Name, init, gApplied, gm, wApplied, wm)
		}
		for i, ok := range gApplied {
			if !ok {
				t.Fatalf("seed %d: %s on %s: firing %d of the batch overlaps an earlier one", seed, r.Name, init, i)
			}
		}
	}
}

// TestConditionPanicReleasesReadSession: no lock outlives a probe. A
// condition that panics mid-search is recovered into *rt.PanicError by both
// engines; the probe's shard read locks must be gone by then, or the next
// writer blocks forever.
func TestConditionPanicReleasesReadSession(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := minReaction()
		cond := r.kernel().branches[0].cond
		var evals atomic.Int32
		r.kernel().branches[0].cond = func(env []value.Value) (bool, error) {
			if evals.Add(1) == 3 {
				panic("condition blew up")
			}
			return cond(env)
		}
		m := intsMultiset(9, 4, 7, 1, 8, 3)
		_, err := Run(MustProgram("min", r), m, Options{Workers: workers, Seed: 1})
		var pe *rt.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *rt.PanicError", workers, err, err)
		}
		done := make(chan struct{})
		go func() {
			m.Add(multiset.New1(value.Int(0)))
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("workers=%d: Add after the recovered panic blocked: a probe's read lock leaked", workers)
		}
	}
}
