package multiset

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestCommitMatchesReference is the commit core's property test: over 500
// seeds, deltas committed one firing at a time must be observationally equal
// to the two-phase reference, TryRemoveAll of the consume side then AddAll of
// the produce side — the same deltas succeed (a failed claim changing
// nothing), the final multisets are equal, the deduplicated produce symbols
// are the reference's, and the sequence numbers of the applied ones strictly
// increase. The core is entered through both of its doors and both ways of
// addressing: keyed takes the deltas by tuple (some with CKeys), alternately
// through ApplyDelta and through View.Commit in a write session; handled takes
// them through View.Commit with the consume side as the Refs a View would issue
// just before each and some product symbols pre-resolved in PSyms.
func TestCommitMatchesReference(t *testing.T) {
	for seed := 0; seed < 500; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		keyed, handled, reference := New(), New(), New()
		for i, n := 0, rng.Intn(10); i < n; i++ {
			tp := randDeltaTuple(rng)
			k := 1 + rng.Intn(2)
			keyed.AddN(tp, k)
			handled.AddN(tp, k)
			reference.AddN(tp, k)
		}
		var lastKeyed, lastHandled uint64
		for round := 0; round < 4; round++ {
			var keyedSyms, handledSyms, wantSyms []symtab.Sym
			for i, k := 0, 1+rng.Intn(5); i < k; i++ {
				var consume, produce []Tuple
				for j, n := 0, rng.Intn(3); j < n; j++ {
					consume = append(consume, randDeltaTuple(rng))
				}
				for j, n := 0, rng.Intn(3); j < n; j++ {
					produce = append(produce, randDeltaTuple(rng))
				}
				want := reference.TryRemoveAll(consume)
				if want {
					reference.AddAll(produce)
					for _, tp := range produce {
						sym := NoLabelSym
						if label, ok := tp.Label(); ok {
							sym = symtab.Intern(label)
						}
						if !slices.Contains(wantSyms, sym) {
							wantSyms = append(wantSyms, sym)
						}
					}
				}

				kd := Delta{Consume: consume, Produce: produce}
				if rng.Intn(2) == 0 {
					for _, tp := range consume {
						kd.CKeys = append(kd.CKeys, tp.Key())
					}
				}
				hd := Delta{Refs: refsOf(handled, consume), Produce: produce, PSyms: make([]symtab.Sym, len(produce))}
				for j, tp := range produce {
					if rng.Intn(2) == 0 {
						hd.PSyms[j] = labelSymOf(tp)
					}
				}
				var kok, hok bool
				var kseq, hseq uint64
				if rng.Intn(2) == 0 {
					kok, keyedSyms = keyed.ApplyDelta(kd.Consume, kd.CKeys, kd.Produce, keyedSyms)
				} else if kseq, kok, keyedSyms = commitIn(keyed, kd, true, keyedSyms); kok {
					if kseq <= lastKeyed {
						t.Fatalf("seed %d round %d delta %d: seq %d after %d", seed, round, i, kseq, lastKeyed)
					}
					lastKeyed = kseq
				}
				if hseq, hok, handledSyms = commitIn(handled, hd, true, handledSyms); hok {
					if hseq <= lastHandled {
						t.Fatalf("seed %d round %d delta %d: by handle seq %d after %d", seed, round, i, hseq, lastHandled)
					}
					lastHandled = hseq
				}
				if kok != want || hok != want || (!want && kseq+hseq != 0) {
					t.Fatalf("seed %d round %d delta %d: by key applied=%v (seq %d), by handle %v (seq %d), reference %v (consume=%v)",
						seed, round, i, kok, kseq, hok, hseq, want, consume)
				}
			}
			if !slices.Equal(keyedSyms, wantSyms) || !slices.Equal(handledSyms, wantSyms) {
				t.Fatalf("seed %d round %d: syms by key %v, by handle %v, reference %v", seed, round, keyedSyms, handledSyms, wantSyms)
			}
			if !keyed.Equal(reference) || !handled.Equal(reference) {
				t.Fatalf("seed %d round %d: states diverged:\n by key:    %s\n by handle: %s\n reference: %s",
					seed, round, keyed, handled, reference)
			}
			for _, m := range []*Multiset{keyed, handled, reference} {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			}
		}
	}
}

// TestCommitLaterSeesEarlier pins the ordering semantics inside one write
// session: a commit may consume what an earlier one produced, and a commit
// whose claim fails draws no sequence number, reports no symbol and leaves
// the multiset to the later ones as it found it.
func TestCommitLaterSeesEarlier(t *testing.T) {
	m := New(IntElem(1, "A", 0))
	var v View
	m.LockWrite(&v)
	var syms []symtab.Sym
	var seqs []uint64
	var applied []bool
	for _, dl := range []Delta{
		{Consume: []Tuple{IntElem(1, "A", 0)}, Produce: []Tuple{IntElem(2, "B", 0)}},
		{Consume: []Tuple{IntElem(1, "A", 0)}, Produce: []Tuple{IntElem(7, "C", 0)}}, // gone: claimed by the first
		{Consume: []Tuple{IntElem(2, "B", 0)}, Produce: []Tuple{IntElem(3, "C", 0)}}, // produced by the first
	} {
		var seq uint64
		var ok bool
		seq, ok, syms = v.Commit(&dl, true, syms)
		seqs, applied = append(seqs, seq), append(applied, ok)
	}
	v.Unlock()
	if fmt.Sprint(applied) != "[true false true]" || fmt.Sprint(seqs) != "[1 0 2]" {
		t.Fatalf("applied = %v, seqs = %v, want [true false true], [1 0 2]", applied, seqs)
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
		m.LockRead(&v)
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

		m.LockRead(&v)
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
	m.LockRead(&v)
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

// TestViewContractPanics pins what a View refuses rather than race the writer
// silently: enumerating (or walking the invariants) through a View that was
// never locked or has been unlocked, committing through a read View, and
// splitting or absorbing outside a write session.
func TestViewContractPanics(t *testing.T) {
	m := New(Pair(value.Int(1), "A"))
	sym := symtab.Intern("A")
	each := func(Ref) bool { return true }
	var never, unlocked, read View
	m.LockWrite(&unlocked)
	unlocked.Unlock()
	m.LockRead(&read)
	defer read.Unlock()
	for name, fn := range map[string]func(){
		"EachSym, never locked":         func() { never.EachSym(sym, 0, each) },
		"EachSymTag, never locked":      func() { never.EachSymTag(sym, 0, 0, each) },
		"EachAll, never locked":         func() { never.EachAll(0, each) },
		"CheckInvariants, never locked": func() { never.CheckInvariants() },
		"EachSym, unlocked":             func() { unlocked.EachSym(sym, 0, each) },
		"EachAll, unlocked":             func() { unlocked.EachAll(0, each) },
		"Commit, unlocked":              func() { unlocked.Commit(&Delta{}, false, nil) },
		"Commit, read view":             func() { read.Commit(&Delta{}, false, nil) },
		"Partition, read view":          func() { read.Partition(2) },
		"Partition, unlocked":           func() { unlocked.Partition(2) },
		"Absorb, read view":             func() { read.Absorb(nil) },
		"locking a locked view":         func() { m.LockRead(&read) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	if n := 0; !read.EachSym(sym, 0, func(Ref) bool { n++; return true }) || n != 1 || m.Len() != 1 {
		t.Errorf("the read view saw %d of %s after the refused calls", n, m)
	}
}

// TestApplyDeltaSeqLinearizes pins the property the replay recorder is built
// on: commit sequence numbers drawn inside the write lock (numbered commits,
// one or eight to a write session, racing across workers) are unique, and
// re-applying the commits sequentially in seq order against a
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
			// exactly once machine-wide. Even workers hold a write session for
			// eight commits, odd workers for one.
			perm := rng.Perm(tokens)
			span := 1 + 7*((w+1)%2)
			var v View
			for at := 0; at < len(perm); at += span {
				m.LockWrite(&v)
				for _, i := range perm[at:min(at+span, len(perm))] {
					consume := Tuple{value.Int(int64(i)), value.Str("T")}
					produce := Tuple{value.Int(int64(i)), value.Str("D")}
					if seq, ok, _ := v.Commit(&Delta{Consume: []Tuple{consume}, Produce: []Tuple{produce}}, true, nil); ok {
						won = append(won, commit{seq, consume, produce})
					}
				}
				v.Unlock()
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
