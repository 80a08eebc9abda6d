package multiset

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/symtab"
	"repro/internal/value"
)

// TestByLabelKeyOrdered checks that the maintained per-label index comes back
// in ascending key order without any per-call sort — the property the
// deterministic matcher relies on.
func TestByLabelKeyOrdered(t *testing.T) {
	m := New()
	for _, v := range []int64{9, 3, 7, 1, 5, 3} {
		m.Add(Pair(value.Int(v), "L"))
	}
	got := m.ByLabel("L")
	for i := 1; i < len(got); i++ {
		if got[i-1].Tuple.Key() >= got[i].Tuple.Key() {
			t.Fatalf("ByLabel not strictly key-ascending at %d: %v then %v", i, got[i-1].Tuple, got[i].Tuple)
		}
	}
	// 5 distinct tuples, one with count 2.
	if len(got) != 5 {
		t.Fatalf("distinct = %d, want 5", len(got))
	}
	if m.Count(Pair(value.Int(3), "L")) != 2 {
		t.Fatal("count of duplicate lost")
	}
}

// TestForEachAgreesWithSnapshot checks the whole-multiset walk — the bare
// list, then the label lists — against the Compare-sorted Snapshot:
// every distinct tuple once, with its count, whatever list it is filed in.
func TestForEachAgreesWithSnapshot(t *testing.T) {
	m := New()
	for i := 0; i < 200; i++ {
		m.Add(New1(value.Int(int64(i * 37 % 101))))
		if i%3 == 0 {
			m.Add(Pair(value.Int(int64(i)), "L"))
		}
		if i%7 == 0 {
			m.Add(New1(value.Str("s")))
		}
	}
	want := map[string]int{}
	for _, c := range m.Snapshot() {
		want[c.Tuple.Key()] = c.N
	}
	seen := 0
	m.ForEach(func(tp Tuple, n int) bool {
		if want[tp.Key()] != n {
			t.Fatalf("ForEach yields (%v,%d), Snapshot has count %d", tp, n, want[tp.Key()])
		}
		delete(want, tp.Key())
		seen++
		return true
	})
	if len(want) != 0 || seen != m.Distinct() {
		t.Fatalf("ForEach yielded %d distinct tuples of %d, missed %d", seen, m.Distinct(), len(want))
	}
}

// TestIterAllRotExhaustive checks that the rotated whole-set walk visits
// exactly the multiset's element set — every distinct tuple once, with the
// same count and cached key — for many rotations, that a fixed rotation yields
// a fixed order (determinism), and that early exit works.
func TestIterAllRotExhaustive(t *testing.T) {
	m := New()
	for i := 0; i < 150; i++ {
		m.Add(New1(value.Int(int64(i * 53 % 97))))
		if i%4 == 0 {
			m.Add(Pair(value.Int(int64(i)), "L"))
		}
	}
	want := map[string]int{}
	for _, c := range m.Snapshot() {
		want[c.Tuple.Key()] = c.N
	}
	for _, rot := range []uint64{0, 1, 31, 32, 1 << 40, ^uint64(0), detRotTest(151)} {
		got := map[string]int{}
		var order1, order2 []string
		m.IterAllRot(rot, func(tp Tuple, n int, key string) bool {
			if tp.Key() != key {
				t.Fatalf("rot %d: cached key %q != Key() %q", rot, key, tp.Key())
			}
			got[key] = n
			order1 = append(order1, key)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("rot %d: visited %d distinct tuples, want %d", rot, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("rot %d: key %q count %d, want %d", rot, k, got[k], n)
			}
		}
		m.IterAllRot(rot, func(tp Tuple, n int, key string) bool {
			order2 = append(order2, key)
			return true
		})
		for i := range order1 {
			if order1[i] != order2[i] {
				t.Fatalf("rot %d: order not deterministic at %d: %q vs %q", rot, i, order1[i], order2[i])
			}
		}
	}
	calls := 0
	m.IterAllRot(7, func(Tuple, int, string) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("IterAllRot early exit after %d calls, want 3", calls)
	}
}

// detRotTest is a splitmix64 round, the same mixing the gamma matcher uses to
// derive rotations from multiset sizes; here it just provides one more
// arbitrary rotation value.
func detRotTest(n int) uint64 {
	z := uint64(n) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestIterEarlyExit checks that returning false stops all three iterators.
func TestIterEarlyExit(t *testing.T) {
	m := New()
	for i := int64(0); i < 50; i++ {
		m.Add(IntElem(i, "L", i%4))
	}
	sym, _ := symtab.SymOf("L")
	for name, iter := range map[string]func(fn func(Tuple, int, string) bool){
		"IterAllRot": func(fn func(Tuple, int, string) bool) { m.IterAllRot(0, fn) },
		"IterSym":    func(fn func(Tuple, int, string) bool) { m.IterSym(sym, fn) },
		"IterSymTag": func(fn func(Tuple, int, string) bool) { m.IterSymTag(sym, 2, fn) },
	} {
		calls := 0
		iter(func(Tuple, int, string) bool {
			calls++
			return calls < 3
		})
		if calls != 3 {
			t.Fatalf("%s: early exit after %d calls, want 3", name, calls)
		}
	}
}

// TestIterSymTagMatchesByLabelTag checks the zero-copy (label, tag) walk
// yields exactly the snapshot the randomized path sees.
func TestIterSymTagMatchesByLabelTag(t *testing.T) {
	m := New()
	for i := int64(0); i < 40; i++ {
		m.Add(IntElem(i, "L", i%5))
		m.Add(IntElem(i, "R", i%5))
	}
	want := m.ByLabelTag("L", 3)
	var got []Counted
	sym, _ := symtab.SymOf("L")
	m.IterSymTag(sym, 3, func(tp Tuple, n int, _ string) bool {
		got = append(got, Counted{Tuple: tp, N: n})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("IterSymTag yields %d, ByLabelTag %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) || got[i].N != want[i].N {
			t.Fatalf("at %d: iter (%v,%d) vs snapshot (%v,%d)", i, got[i].Tuple, got[i].N, want[i].Tuple, want[i].N)
		}
	}
}

// TestIndexesAfterRemoval checks sorted-index maintenance through interleaved
// add/remove churn: the label index never resurrects removed tuples and stays
// ordered.
func TestIndexesAfterRemoval(t *testing.T) {
	m := New()
	for i := int64(0); i < 30; i++ {
		m.Add(Pair(value.Int(i), "L"))
	}
	for i := int64(0); i < 30; i += 2 {
		if !m.Remove(Pair(value.Int(i), "L")) {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	got := m.ByLabel("L")
	if len(got) != 15 {
		t.Fatalf("distinct after removal = %d, want 15", len(got))
	}
	for _, c := range got {
		if c.Tuple[0].AsInt()%2 == 0 {
			t.Fatalf("removed tuple %v still indexed", c.Tuple)
		}
	}
	if len(m.Snapshot()) != 15 || m.Distinct() != 15 {
		t.Fatalf("%d tuples enumerated, %d distinct after removal, want 15", len(m.Snapshot()), m.Distinct())
	}
}

func TestApplyDeltaCommit(t *testing.T) {
	m := New(
		IntElem(1, "A", 0),
		IntElem(2, "A", 0),
		IntElem(9, "B", 1),
	)
	consume := []Tuple{IntElem(1, "A", 0), IntElem(2, "A", 0)}
	produce := []Tuple{IntElem(3, "C", 0), IntElem(4, "C", 1), {value.Int(7)}}
	ok, syms := m.ApplyDelta(consume, nil, produce, nil)
	if !ok {
		t.Fatal("commit failed on available molecules")
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	for _, gone := range consume {
		if m.Contains(gone) {
			t.Fatalf("consumed %s still present", gone)
		}
	}
	for _, added := range produce {
		if m.Count(added) != 1 {
			t.Fatalf("produced %s count = %d", added, m.Count(added))
		}
	}
	cSym, _ := symtab.SymOf("C")
	want := map[symtab.Sym]bool{cSym: true, NoLabelSym: true}
	if len(syms) != 2 || !want[syms[0]] || !want[syms[1]] {
		t.Fatalf("delta syms = %v, want {C, NoLabelSym}", syms)
	}
}

func TestApplyDeltaFailedClaimUntouched(t *testing.T) {
	m := New(IntElem(1, "A", 0))
	before := m.String()
	prior := []symtab.Sym{symtab.Intern("marker")}
	ok, syms := m.ApplyDelta(
		[]Tuple{IntElem(1, "A", 0), IntElem(2, "A", 0)}, nil,
		[]Tuple{IntElem(3, "C", 0)}, prior)
	if ok {
		t.Fatal("claim succeeded despite missing molecule")
	}
	if m.String() != before {
		t.Fatalf("failed claim mutated the multiset: %s -> %s", before, m.String())
	}
	if len(syms) != 1 || syms[0] != prior[0] {
		t.Fatalf("failed claim changed syms: %v", syms)
	}
}

func TestApplyDeltaDuplicateConsume(t *testing.T) {
	m := New(IntElem(1, "A", 0))
	dup := []Tuple{IntElem(1, "A", 0), IntElem(1, "A", 0)}
	if ok, _ := m.ApplyDelta(dup, nil, nil, nil); ok {
		t.Fatal("claimed two occurrences of a multiplicity-1 tuple")
	}
	m.Add(IntElem(1, "A", 0))
	if ok, _ := m.ApplyDelta(dup, nil, nil, nil); !ok {
		t.Fatal("failed to claim two occurrences of a multiplicity-2 tuple")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after consuming both, want 0", m.Len())
	}
}

// TestApplyDeltaMatchesTwoPhase is the commit differential: on random deltas,
// the batched single-lock commit must succeed exactly when the seed engine's
// TryRemoveAll+AddAll two-phase commit succeeds, and leave the same multiset.
func TestApplyDeltaMatchesTwoPhase(t *testing.T) {
	labels := []string{"A", "B", "C"}
	randTuple := func(rng *rand.Rand) Tuple {
		tp := Tuple{value.Int(int64(rng.Intn(4)))}
		if rng.Intn(4) > 0 {
			tp = append(tp, value.Str(labels[rng.Intn(len(labels))]))
			if rng.Intn(2) == 0 {
				tp = append(tp, value.Int(int64(rng.Intn(3))))
			}
		}
		return tp
	}
	for seed := 0; seed < 500; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		batched := New()
		twoPhase := New()
		for i, n := 0, rng.Intn(8); i < n; i++ {
			tp := randTuple(rng)
			k := 1 + rng.Intn(2)
			batched.AddN(tp, k)
			twoPhase.AddN(tp, k)
		}
		for step := 0; step < 6; step++ {
			var consume, produce []Tuple
			for i, n := 0, rng.Intn(3); i < n; i++ {
				consume = append(consume, randTuple(rng))
			}
			for i, n := 0, rng.Intn(3); i < n; i++ {
				produce = append(produce, randTuple(rng))
			}
			okB, _ := batched.ApplyDelta(consume, nil, produce, nil)
			okT := twoPhase.TryRemoveAll(consume)
			if okT {
				twoPhase.AddAll(produce)
			}
			if okB != okT {
				t.Fatalf("seed %d step %d: batched=%v twoPhase=%v for consume=%v", seed, step, okB, okT, consume)
			}
			if okB && !batched.Equal(twoPhase) {
				t.Fatalf("seed %d step %d: diverged:\n batched:  %s\n twoPhase: %s", seed, step, batched, twoPhase)
			}
		}
		if !batched.Equal(twoPhase) {
			t.Fatalf("seed %d: final states diverged:\n batched:  %s\n twoPhase: %s", seed, batched, twoPhase)
		}
	}
}

func TestApplyDeltaKeyedMatchesUnkeyed(t *testing.T) {
	consume := []Tuple{IntElem(1, "A", 0), IntElem(2, "B", 1)}
	keys := []string{consume[0].Key(), consume[1].Key()}
	produce := []Tuple{IntElem(3, "C", 0)}
	a := New(consume[0], consume[1])
	b := New(consume[0], consume[1])
	okA, symsA := a.ApplyDelta(consume, keys, produce, nil)
	okB, symsB := b.ApplyDelta(consume, nil, produce, nil)
	if okA != okB || !a.Equal(b) {
		t.Fatalf("keyed/unkeyed diverged: ok %v/%v, %s vs %s", okA, okB, a, b)
	}
	if len(symsA) != len(symsB) || symsA[0] != symsB[0] {
		t.Fatalf("syms diverged: %v vs %v", symsA, symsB)
	}
}

// TestIterKeysMatchTupleKey pins the cached-fingerprint contract: every key a
// maintained index hands to its callback equals Tuple.Key() recomputed.
func TestIterKeysMatchTupleKey(t *testing.T) {
	m := New(
		IntElem(1, "A", 0),
		IntElem(2, "A", 5),
		IntElem(3, "B", 0),
		Tuple{value.Int(4)},
	)
	check := func(where string, tp Tuple, key string) {
		if key != tp.Key() {
			t.Errorf("%s: cached key %q != Key() %q for %s", where, key, tp.Key(), tp)
		}
	}
	aSym, _ := symtab.SymOf("A")
	m.IterSym(aSym, func(tp Tuple, n int, key string) bool { check("IterSym", tp, key); return true })
	m.IterSymTag(aSym, 5, func(tp Tuple, n int, key string) bool { check("IterSymTag", tp, key); return true })
	seen := 0
	m.IterAllRot(0, func(tp Tuple, n int, key string) bool { seen++; check("IterAllRot", tp, key); return true })
	if seen != 4 {
		t.Fatalf("IterAllRot visited %d, want 4", seen)
	}
	for _, c := range m.BySym(aSym) {
		check("BySym", c.Tuple, c.Key)
	}
}

// TestUnknownLabelLookupsMissCleanly exercises every query and consume entry
// point on labels that were never interned anywhere in the process: each
// answers "absent" — a failed claim changes nothing — and none of them grows
// the process-global symbol table, which a read-only query (in gammad, a
// hostile request) could otherwise fill for good. Only an insert interns.
func TestUnknownLabelLookupsMissCleanly(t *testing.T) {
	m := New(IntElem(1, "A", 0))
	before, want := symtab.Len(), m.String()
	if got := m.ByLabel("never-interned-label-xyz"); got != nil {
		t.Fatalf("ByLabel on unknown label = %v", got)
	}
	if got := m.ByLabelTag("never-interned-label-xyz", 0); got != nil {
		t.Fatalf("ByLabelTag on unknown label = %v", got)
	}
	known := []Tuple{IntElem(2, "C", 0)}
	symtab.Intern("C")
	before = symtab.Len()
	for name, miss := range map[string]func(t Tuple) bool{
		"Count":        func(t Tuple) bool { return m.Count(t) != 0 },
		"Contains":     m.Contains,
		"Remove":       m.Remove,
		"TryRemoveAll": func(t Tuple) bool { return m.TryRemoveAll([]Tuple{IntElem(1, "A", 0), t}) },
		"ApplyDelta": func(t Tuple) bool {
			ok, syms := m.ApplyDelta([]Tuple{t}, nil, known, nil)
			return ok || len(syms) != 0
		},
		"ApplyDelta keyed": func(t Tuple) bool {
			ok, _ := m.ApplyDelta([]Tuple{IntElem(1, "A", 0), t}, []string{IntElem(1, "A", 0).Key(), t.Key()}, known, nil)
			return ok
		},
	} {
		if miss(Pair(value.Int(1), "never-interned-"+name)) || miss(IntElem(1, "never-interned-"+name, 3)) {
			t.Errorf("%s found a tuple whose label nobody interned", name)
		}
		if got := symtab.Len(); got != before {
			t.Errorf("%s on a never-seen label grew the symbol table by %d", name, got-before)
		}
	}
	if m.String() != want || m.CheckInvariants() != nil {
		t.Errorf("misses changed the multiset: %s (%v)", m, m.CheckInvariants())
	}
	m.Add(Pair(value.Int(1), fmt.Sprintf("interned-by-insert-%d", before))) // fresh on every -count run
	if symtab.Len() != before+1 {
		t.Errorf("an insert under a new label interned %d symbols, want 1", symtab.Len()-before)
	}
}
