package multiset

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/symtab"
	"repro/internal/value"
)

// randDeltaTuple draws from a small universe so claims collide often enough
// to exercise the partial-failure paths.
func randDeltaTuple(rng *rand.Rand) Tuple {
	labels := []string{"A", "B", "C"}
	tp := Tuple{value.Int(int64(rng.Intn(4)))}
	if rng.Intn(4) > 0 {
		tp = append(tp, value.Str(labels[rng.Intn(len(labels))]))
		if rng.Intn(2) == 0 {
			tp = append(tp, value.Int(int64(rng.Intn(3))))
		}
	}
	return tp
}

// TestApplyDeltasMatchesSequential is the batch-commit property test: over
// 500 seeds, a k-firing ApplyDeltas must be observationally equal to k
// sequential ApplyDelta commits — the same per-delta claims succeed
// (including partial-claim failures mid-batch), the final multisets are
// equal, and the deduplicated produce symbols agree. A third multiset takes
// the same deltas handle-addressed — the consume side as the Refs a View
// would issue just before each, some product symbols pre-resolved in PSyms —
// and must apply the same ones, report the same symbols and stay equal: the
// two front doors share one commit core.
func TestApplyDeltasMatchesSequential(t *testing.T) {
	for seed := 0; seed < 500; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		batched := New()
		sequential := New()
		handled := New()
		for i, n := 0, rng.Intn(10); i < n; i++ {
			tp := randDeltaTuple(rng)
			k := 1 + rng.Intn(2)
			batched.AddN(tp, k)
			sequential.AddN(tp, k)
			handled.AddN(tp, k)
		}
		for round := 0; round < 4; round++ {
			k := 1 + rng.Intn(5)
			ds := make([]Delta, k)
			for i := range ds {
				var consume, produce []Tuple
				for j, n := 0, rng.Intn(3); j < n; j++ {
					consume = append(consume, randDeltaTuple(rng))
				}
				for j, n := 0, rng.Intn(3); j < n; j++ {
					produce = append(produce, randDeltaTuple(rng))
				}
				ds[i] = Delta{Consume: consume, Produce: produce}
				if rng.Intn(2) == 0 {
					keys := make([]string, len(consume))
					for j, tp := range consume {
						keys[j] = tp.Key()
					}
					ds[i].CKeys = keys
				}
			}
			applied := make([]bool, k)
			gotN, gotSyms := batched.ApplyDeltas(ds, applied, nil, nil)

			wantN := 0
			var wantSyms, handledSyms []symtab.Sym
			for i := range ds {
				ok, syms := sequential.ApplyDelta(ds[i].Consume, ds[i].CKeys, ds[i].Produce, wantSyms)
				wantSyms = syms
				if ok {
					wantN++
				}
				hd := Delta{Refs: refsOf(handled, ds[i].Consume), Produce: ds[i].Produce, PSyms: make([]symtab.Sym, len(ds[i].Produce))}
				for j, tp := range hd.Produce {
					if rng.Intn(2) == 0 {
						hd.PSyms[j] = labelSymOf(tp)
					}
				}
				var hn int
				if hn, handledSyms = handled.ApplyDeltas([]Delta{hd}, nil, nil, handledSyms); (hn == 1) != ok {
					t.Fatalf("seed %d round %d delta %d: by handle applied=%v, by key %v (consume=%v)",
						seed, round, i, hn == 1, ok, ds[i].Consume)
				}
				if ok != applied[i] {
					t.Fatalf("seed %d round %d delta %d: batch applied=%v, sequential=%v (consume=%v)",
						seed, round, i, applied[i], ok, ds[i].Consume)
				}
			}
			if gotN != wantN {
				t.Fatalf("seed %d round %d: batch applied %d deltas, sequential %d", seed, round, gotN, wantN)
			}
			if len(gotSyms) != len(wantSyms) {
				t.Fatalf("seed %d round %d: syms %v vs sequential %v", seed, round, gotSyms, wantSyms)
			}
			for i := range gotSyms {
				if gotSyms[i] != wantSyms[i] {
					t.Fatalf("seed %d round %d: syms %v vs sequential %v", seed, round, gotSyms, wantSyms)
				}
			}
			if !batched.Equal(sequential) || !handled.Equal(sequential) || fmt.Sprint(handledSyms) != fmt.Sprint(wantSyms) {
				t.Fatalf("seed %d round %d: states diverged:\n batch:      %s\n sequential: %s\n by handle:  %s (syms %v vs %v)",
					seed, round, batched, sequential, handled, handledSyms, wantSyms)
			}
			for _, m := range []*Multiset{batched, sequential, handled} {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			}
		}
	}
}

// TestApplyDeltasLaterSeesEarlier pins the in-batch ordering semantics: a
// delta may consume what an earlier delta of the same batch produced, and a
// delta whose claim fails must not affect later deltas.
func TestApplyDeltasLaterSeesEarlier(t *testing.T) {
	m := New(IntElem(1, "A", 0))
	applied := make([]bool, 3)
	n, syms := m.ApplyDeltas([]Delta{
		{Consume: []Tuple{IntElem(1, "A", 0)}, Produce: []Tuple{IntElem(2, "B", 0)}},
		{Consume: []Tuple{IntElem(1, "A", 0)}, Produce: []Tuple{IntElem(7, "C", 0)}}, // gone: claimed by delta 0
		{Consume: []Tuple{IntElem(2, "B", 0)}, Produce: []Tuple{IntElem(3, "C", 0)}}, // produced by delta 0
	}, applied, nil, nil)
	if n != 2 || !applied[0] || applied[1] || !applied[2] {
		t.Fatalf("applied = %v (n=%d), want [true false true]", applied, n)
	}
	if !m.Contains(IntElem(3, "C", 0)) || m.Contains(IntElem(7, "C", 0)) || m.Len() != 1 {
		t.Fatalf("unexpected final state %s", m)
	}
	bSym, _ := symtab.SymOf("B")
	cSym, _ := symtab.SymOf("C")
	if len(syms) != 2 || syms[0] != bSym || syms[1] != cSym {
		t.Fatalf("syms = %v, want [B C]", syms)
	}
}

// TestApplyDeltaAnnihilation checks that a consume/produce pair with equal
// fingerprints (the within-delta annihilation fast path) keeps exact
// remove-then-insert semantics: counts unchanged, claim still gross.
func TestApplyDeltaAnnihilation(t *testing.T) {
	m := New(IntElem(1, "A", 0), IntElem(2, "A", 0))
	// consume {1A, 2A}, produce {1A}: net removal of 2A only.
	ok, syms := m.ApplyDelta(
		[]Tuple{IntElem(1, "A", 0), IntElem(2, "A", 0)}, nil,
		[]Tuple{IntElem(1, "A", 0)}, nil)
	if !ok {
		t.Fatal("claim failed on available molecules")
	}
	if m.Count(IntElem(1, "A", 0)) != 1 || m.Contains(IntElem(2, "A", 0)) || m.Len() != 1 {
		t.Fatalf("unexpected state %s", m)
	}
	aSym, _ := symtab.SymOf("A")
	if len(syms) != 1 || syms[0] != aSym {
		t.Fatalf("syms = %v, want [A]: annihilation must not change the reported delta", syms)
	}
	// Gross claim: consume {x}, produce {x} on an absent x must still fail.
	if ok, _ := m.ApplyDelta([]Tuple{IntElem(9, "Z", 0)}, nil, []Tuple{IntElem(9, "Z", 0)}, nil); ok {
		t.Fatal("net-noop delta claimed an absent molecule")
	}
}

// TestViewEnumerationExhaustive checks that rotated View enumeration visits
// exactly the index's candidates for any rotation, with correct counts and
// cached keys.
func TestViewEnumerationExhaustive(t *testing.T) {
	m := New()
	for i := int64(0); i < 100; i++ {
		m.Add(IntElem(i, "L", i%4))
		if i%3 == 0 {
			m.Add(New1(value.Int(i))) // unlabeled, for EachAll
		}
	}
	sym := symtab.Intern("L")
	want := m.BySym(sym)
	var v View
	for _, rot := range []uint64{0, 1, 7<<32 | 13, ^uint64(0)} {
		m.LockView(&v, []symtab.Sym{sym}, false)
		seen := map[string]int{}
		v.EachSym(sym, rot, unref(func(tp Tuple, n int, key string) bool {
			if key != tp.Key() {
				t.Fatalf("cached key %q != Key() %q", key, tp.Key())
			}
			seen[key] += n
			return true
		}))
		v.Unlock()
		v.Unlock() // idempotent
		if len(seen) != len(want) {
			t.Fatalf("rot %d: EachSym saw %d distinct, want %d", rot, len(seen), len(want))
		}
		for _, c := range want {
			if seen[c.Key] != c.N {
				t.Fatalf("rot %d: key %q count %d, want %d", rot, c.Key, seen[c.Key], c.N)
			}
		}

		m.LockView(&v, nil, true)
		all := 0
		v.EachAll(rot, func(Ref) bool { all++; return true })
		tagged := 0
		v.EachSymTag(sym, 2, rot, func(Ref) bool { tagged++; return true })
		v.Unlock()
		if all != m.Distinct() {
			t.Fatalf("rot %d: EachAll saw %d distinct, want %d", rot, all, m.Distinct())
		}
		if wantTagged := len(m.BySymTag(sym, 2)); tagged != wantTagged {
			t.Fatalf("rot %d: EachSymTag saw %d, want %d", rot, tagged, wantTagged)
		}
	}
}

// TestViewEarlyExit checks that a false return stops rotated enumeration.
func TestViewEarlyExit(t *testing.T) {
	m := New()
	for i := int64(0); i < 50; i++ {
		m.Add(Pair(value.Int(i), "L"))
	}
	sym := symtab.Intern("L")
	var v View
	m.LockView(&v, []symtab.Sym{sym}, false)
	defer v.Unlock()
	calls := 0
	done := v.EachSym(sym, 3<<32|11, func(Ref) bool {
		calls++
		return calls < 5
	})
	if calls != 5 || done {
		t.Fatalf("early exit after %d calls, want 5", calls)
	}
}

// TestViewOutsideShardSetPanics pins the misroute guard: enumerating a label
// whose shard the view does not hold must panic rather than race writers.
func TestViewOutsideShardSetPanics(t *testing.T) {
	m := New(Pair(value.Int(1), "A"))
	aSym := symtab.Intern("A")
	other := aSym + 1 // routes to the next shard by construction
	var v View
	m.LockView(&v, []symtab.Sym{aSym}, false)
	defer v.Unlock()
	defer func() {
		if recover() == nil {
			t.Fatal("EachSym outside the locked shard set did not panic")
		}
	}()
	v.EachSym(other, 0, func(Ref) bool { return true })
}

// TestApplyDeltaSeqLinearizes pins the property the replay recorder is built
// on: commit sequence numbers drawn inside the locked commit region
// (ApplyDeltas with seqs, one delta or a batch at a time, racing across workers) are
// unique, and re-applying the commits sequentially in seq order against a
// clone of the initial multiset succeeds at every step and reproduces the
// concurrent execution's final multiset exactly.
func TestApplyDeltaSeqLinearizes(t *testing.T) {
	const tokens = 400
	const workers = 4
	init := New()
	for i := 0; i < tokens; i++ {
		init.Add(Tuple{value.Int(int64(i)), value.Str("T")})
	}
	m := init.Clone()

	type commit struct {
		seq     uint64
		consume Tuple
		produce Tuple
	}
	var mu sync.Mutex
	var commits []commit
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var won []commit
			// Every worker fights for every token; each token is consumed
			// exactly once machine-wide. Even workers commit through the
			// batched path, odd workers one delta at a time.
			perm := rng.Perm(tokens)
			if w%2 == 0 {
				const span = 8
				for at := 0; at < len(perm); at += span {
					end := min(at+span, len(perm))
					ds := make([]Delta, 0, end-at)
					for _, i := range perm[at:end] {
						ds = append(ds, Delta{
							Consume: []Tuple{{value.Int(int64(i)), value.Str("T")}},
							Produce: []Tuple{{value.Int(int64(i)), value.Str("D")}},
						})
					}
					applied := make([]bool, len(ds))
					seqs := make([]uint64, len(ds))
					m.ApplyDeltas(ds, applied, seqs, nil)
					for i, ok := range applied {
						if ok {
							won = append(won, commit{seqs[i], ds[i].Consume[0], ds[i].Produce[0]})
						}
					}
				}
			} else {
				for _, i := range perm {
					consume := Tuple{value.Int(int64(i)), value.Str("T")}
					produce := Tuple{value.Int(int64(i)), value.Str("D")}
					var seq [1]uint64
					n, _ := m.ApplyDeltas([]Delta{{Consume: []Tuple{consume}, Produce: []Tuple{produce}}}, nil, seq[:], nil)
					if n == 1 {
						won = append(won, commit{seq[0], consume, produce})
					}
				}
			}
			mu.Lock()
			commits = append(commits, won...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if len(commits) != tokens {
		t.Fatalf("commits = %d, want %d (each token consumed exactly once)", len(commits), tokens)
	}
	seen := make(map[uint64]bool, len(commits))
	for _, c := range commits {
		if seen[c.seq] {
			t.Fatalf("commit seq %d drawn twice", c.seq)
		}
		seen[c.seq] = true
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].seq < commits[j].seq })
	replayed := init.Clone()
	for i, c := range commits {
		if ok, _ := replayed.ApplyDelta([]Tuple{c.consume}, nil, []Tuple{c.produce}, nil); !ok {
			t.Fatalf("linearized step %d (seq %d) failed to claim %v", i+1, c.seq, c.consume)
		}
	}
	if !replayed.Equal(m) {
		t.Fatal("sequential replay of the seq-ordered commits differs from the concurrent final multiset")
	}
}
