package multiset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// remove deletes the entry with the given key, if present, and returns how
// many entries remain.
func (l *elist) remove(key string) int {
	if at, e := locate(l, key); e != nil {
		return l.removeAt(at)
	}
	return l.total
}

func elistKeys(l *elist) []string {
	var keys []string
	l.eachRot(0, func(e *entry, _ slot) bool {
		keys = append(keys, e.key)
		return true
	})
	return keys
}

// checkElist verifies the structural invariants after every mutation: pages
// and chunks non-empty and within bounds, globally ascending keys, total and
// nchunks consistent.
func checkElist(t *testing.T, l *elist) {
	t.Helper()
	n, nc := 0, 0
	prev := ""
	for pi, p := range l.pages {
		if len(p) == 0 {
			t.Fatalf("page %d empty", pi)
		}
		if len(p) > pageMax {
			t.Fatalf("page %d holds %d chunks > pageMax", pi, len(p))
		}
		for ci, c := range p {
			if c.len() == 0 {
				t.Fatalf("page %d chunk %d empty", pi, ci)
			}
			if c.len() > chunkMax {
				t.Fatalf("page %d chunk %d holds %d > chunkMax", pi, ci, c.len())
			}
			nc++
			for _, e := range c.live() {
				if n > 0 && e.key <= prev {
					t.Fatalf("keys out of order: %q after %q", e.key, prev)
				}
				prev = e.key
				n++
			}
		}
	}
	if n != l.total {
		t.Fatalf("total = %d, entries = %d", l.total, n)
	}
	if nc != l.nchunks {
		t.Fatalf("nchunks = %d, counted %d", l.nchunks, nc)
	}
	checkElistSlack(t, l)
}

// checkElistSlack verifies nothing stale is reachable through capacity beyond
// a length: every chunk slot in its gap or past its len is nil, and every
// directory slot past len is empty — except slot 0 of an empty list's
// directories, where a drain parks its last page and chunk as zero-length
// slices within the retention bounds (all slots nil) for the next insert to
// revive.
func checkElistSlack(t *testing.T, l *elist) {
	t.Helper()
	nilBeyond := func(what string, c chunk) {
		for i, e := range c.buf[:cap(c.buf)] {
			if e != nil && (i < c.lo || i >= len(c.buf)) {
				t.Fatalf("%s: slot %d outside [%d, %d) holds %q", what, i, c.lo, len(c.buf), e.key)
			}
		}
	}
	emptyBeyond := func(what string, p epage) {
		for i, c := range p[len(p):cap(p)] {
			if c.buf != nil {
				t.Fatalf("%s: chunk header %d beyond len %d not cleared", what, len(p)+i, len(p))
			}
		}
	}
	for pi, p := range l.pages {
		emptyBeyond(fmt.Sprintf("page %d", pi), p)
		for ci, c := range p {
			nilBeyond(fmt.Sprintf("page %d chunk %d", pi, ci), c)
		}
	}
	slack := l.pages[len(l.pages):cap(l.pages)]
	if len(l.pages) == 0 && len(slack) > 0 && slack[0] != nil {
		parked := slack[0]
		if len(parked) != 0 || cap(parked) > pageMin || cap(l.pages) > pageMin {
			t.Fatalf("parked page len %d cap %d (directory cap %d)", len(parked), cap(parked), cap(l.pages))
		}
		if chunks := parked[:cap(parked)]; chunks[0].buf != nil {
			if len(chunks[0].buf) != 0 || chunks[0].lo != 0 || cap(chunks[0].buf) > chunkMin {
				t.Fatalf("parked chunk len %d lo %d cap %d", len(chunks[0].buf), chunks[0].lo, cap(chunks[0].buf))
			}
			nilBeyond("parked chunk", chunks[0])
			emptyBeyond("parked page", parked[:1])
		} else {
			emptyBeyond("parked page", parked)
		}
		slack = slack[1:]
	}
	for i, p := range slack {
		if p != nil {
			t.Fatalf("page header %d beyond len %d not cleared", len(l.pages)+i, len(l.pages))
		}
	}
}

// TestElistDrainRefillRecycled cycles one list the way an Algorithm 1 label's
// list lives: fill (mostly 1–3 entries, now and then far past the parking
// bound), check order and len against a model, drain to empty in random
// order, fill again. Every state is checked for stale slots.
func TestElistDrainRefillRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := new(elist)
	const cycles = 400
	for cycle := 0; cycle < cycles; cycle++ {
		if l.len() != 0 || len(l.pages) != 0 || l.nchunks != 0 {
			t.Fatalf("cycle %d: recycled list not empty: len=%d pages=%d nchunks=%d", cycle, l.len(), len(l.pages), l.nchunks)
		}
		n := 1 + rng.Intn(3)
		if cycle%20 == 7 {
			n = chunkMin + rng.Intn(3*chunkMax)
		}
		want := make([]string, n)
		for i := range want {
			want[i] = fmt.Sprintf("c%03d-%05d", cycle, i)
		}
		for _, i := range rng.Perm(n) {
			l.insert(&entry{key: want[i]})
			if n <= 3 {
				checkElist(t, l)
			}
		}
		checkElist(t, l)
		if got := elistKeys(l); l.len() != n || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cycle %d: len %d, keys %v, want %v", cycle, l.len(), got, want)
		}
		for k, i := range rng.Perm(n) {
			l.remove(want[i])
			if n <= 3 || k%97 == 0 {
				checkElist(t, l)
			}
		}
		checkElist(t, l)
		if l.len() != 0 {
			t.Fatalf("cycle %d: %d entries left after draining", cycle, l.len())
		}
		l.eachRot(uint64(cycle), func(e *entry, _ slot) bool {
			t.Fatalf("cycle %d: drained list still enumerates %q", cycle, e.key)
			return false
		})
	}
}

// TestElistChurn drives random insert/remove churn against a sorted-slice
// model, checking order, membership and chunk invariants throughout.
func TestElistChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var l elist
	model := map[string]*entry{}
	for step := 0; step < 20000; step++ {
		key := fmt.Sprintf("k%06d", rng.Intn(3000))
		if e, ok := model[key]; ok && rng.Intn(2) == 0 {
			l.remove(e.key)
			delete(model, key)
		} else if !ok {
			e := &entry{key: key}
			l.insert(e)
			model[key] = e
		}
		if step%500 == 0 {
			checkElist(t, &l)
		}
	}
	checkElist(t, &l)
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	got := elistKeys(&l)
	if len(got) != len(want) {
		t.Fatalf("elist holds %d keys, model %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("at %d: %q vs model %q", i, got[i], want[i])
		}
	}
}

// TestElistRotExhaustive checks eachRot visits every entry exactly once for
// arbitrary rotations, across enough entries to span multiple chunks, each
// with the slot that holds it.
func TestElistRotExhaustive(t *testing.T) {
	var l elist
	const n = 2000 // several chunks
	for i := 0; i < n; i++ {
		l.insert(&entry{key: fmt.Sprintf("k%06d", i)})
	}
	checkElist(t, &l)
	if l.nchunks < 3 {
		t.Fatalf("want ≥3 chunks for rotation coverage, got %d", l.nchunks)
	}
	for _, rot := range []uint64{0, 1, 5<<32 | 999, ^uint64(0), 1 << 31} {
		seen := map[string]bool{}
		l.eachRot(rot, func(e *entry, at slot) bool {
			if seen[e.key] {
				t.Fatalf("rot %d: key %q visited twice", rot, e.key)
			}
			if p := at.pos(); l.pages[p.pi][p.ci].live()[p.i] != e {
				t.Fatalf("rot %d: key %q passed with slot %+v, which holds %q", rot, e.key, p, l.pages[p.pi][p.ci].live()[p.i].key)
			}
			seen[e.key] = true
			return true
		})
		if len(seen) != n {
			t.Fatalf("rot %d: visited %d of %d entries", rot, len(seen), n)
		}
	}
	// Early exit stops the walk.
	calls := 0
	l.eachRot(7, func(*entry, slot) bool { calls++; return calls < 10 })
	if calls != 10 {
		t.Fatalf("early exit after %d calls, want 10", calls)
	}
}

// TestElistPageChurn grows the list far past one page, drains it back down,
// and churns around the page boundaries — the regime where the old flat chunk
// directory memmoved O(#chunks) headers per split/drop and where page
// split/merge/drop now do the work. Invariants are checked continuously and
// the surviving contents are compared against a model at the end.
func TestElistPageChurn(t *testing.T) {
	var l elist
	key := func(i int) string { return fmt.Sprintf("k%07d", i) }
	// Grow to several pages (n entries / chunkMax ≈ chunks; / pageMax ≈ pages).
	// Sequential ascending inserts leave ~half-full chunks and pages, so this
	// yields ~96 chunks across ~6 pages.
	const n = 3 * chunkMax * pageMax / 2
	for i := 0; i < n; i++ {
		l.insert(&entry{key: key(i)})
	}
	checkElist(t, &l)
	if len(l.pages) < 3 {
		t.Fatalf("want ≥3 pages after %d inserts, got %d", n, len(l.pages))
	}
	// Drain from the middle outward so chunk drops land on interior pages and
	// page merges/drops fire.
	for i := n / 4; i < 3*n/4; i++ {
		l.remove(key(i))
		if i%997 == 0 {
			checkElist(t, &l)
		}
	}
	checkElist(t, &l)
	// Churn inserts/removes straddling the surviving boundary regions.
	rng := rand.New(rand.NewSource(7))
	live := map[int]bool{}
	for i := 0; i < n/4; i++ {
		live[i] = true
	}
	for i := 3 * n / 4; i < n; i++ {
		live[i] = true
	}
	for step := 0; step < 30000; step++ {
		i := rng.Intn(n)
		if live[i] {
			l.remove(key(i))
			delete(live, i)
		} else {
			l.insert(&entry{key: key(i)})
			live[i] = true
		}
		if step%1000 == 0 {
			checkElist(t, &l)
		}
	}
	checkElist(t, &l)
	if l.len() != len(live) {
		t.Fatalf("len = %d, model %d", l.len(), len(live))
	}
	got := elistKeys(&l)
	want := make([]string, 0, len(live))
	for i := range live {
		want = append(want, key(i))
	}
	sort.Strings(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("at %d: %q vs model %q", i, got[i], want[i])
		}
	}
	// Drain completely: the last survivor path at both levels.
	for i := range live {
		l.remove(key(i))
	}
	checkElist(t, &l)
	if l.len() != 0 || len(l.pages) != 0 || l.nchunks != 0 {
		t.Fatalf("drained list not empty: len=%d pages=%d nchunks=%d", l.len(), len(l.pages), l.nchunks)
	}
}
