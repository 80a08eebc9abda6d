package multiset

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/symtab"
	"repro/internal/value"
)

// allocBytes reports the heap bytes fn allocates (cumulative, so a GC in the
// middle does not matter).
func allocBytes(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestSingletonChurnAllocatesNothing is the storage discipline Algorithm 1's
// output needs: every edge is one element [v, 'edge', tag], so a firing empties
// a label's list and fills it again under the next tag. On a warmed multiset
// that cycle must perform no allocation of its own (arena chunk refills
// amortize to well under one per step), cost no more than the arena bytes of
// the produced tuple, and — with one or two entries under the label — be one
// remove from and one insert into the label's list and nothing else: no
// (label, tag) map is ever made. Six entries, each under its own tag, are past
// bucketAt: the label is bucketed on the way up and un-bucketed as it drains,
// every step, on the map it keeps.
func TestSingletonChurnAllocatesNothing(t *testing.T) {
	for _, perStep := range []int{1, 2, 6} {
		const steps = 4096
		tuples := make([]Tuple, (steps+1)*perStep)
		keys := make([]string, len(tuples))
		for i := range tuples {
			tag := i / perStep // a fresh tag per step, shared by the step's elements
			if perStep > bucketAt {
				tag = i
			}
			tuples[i] = IntElem(int64(i), "edge", int64(tag))
			keys[i] = tuples[i].Key()
		}
		m := New(tuples[:perStep]...)
		i := 0
		var syms []symtab.Sym // the caller's delta buffer, reused like the engine's
		step := func() {
			var ok bool
			ok, syms = m.ApplyDelta(tuples[i:i+perStep], keys[i:i+perStep], tuples[i+perStep:i+2*perStep], syms[:0])
			if !ok {
				t.Fatalf("step %d: claim failed", i)
			}
			i += perStep
		}
		for i < 64*perStep { // warm: entry freelist, scratch pool, first arena chunks
			step()
		}
		if avg := testing.AllocsPerRun(1999, step); avg != 0 {
			t.Errorf("%d per step: %v allocations per consume/produce step, want 0", perStep, avg)
		}
		sym := symtab.Intern("edge")
		_, li := m.home(sym, false)
		if bucketed := perStep > bucketAt; li.bucketed != bucketed || (li.byTag != nil) != bucketed {
			t.Errorf("%d per step: label bucketed %v, map made %v", perStep, li.bucketed, li.byTag != nil)
		}
		start := i
		bytes := allocBytes(func() {
			for i < start+1000*perStep {
				step()
			}
		}) / 1000
		if bytes > uint64(200*perStep) {
			t.Errorf("%d per step: %d B allocated per step, want <= %d", perStep, bytes, 200*perStep)
		}
		if err := m.CheckInvariants(); err != nil || m.Len() != perStep || !m.Contains(tuples[i]) {
			t.Errorf("%d per step: after %d steps the multiset is %s (%v)", perStep, i/perStep, m, err)
		}
	}
}

// TestBucketHysteresis: a label gets its (label, tag) buckets when it outgrows
// bucketAt, keeps them while it shrinks — churn across the threshold builds
// nothing — and drops them only when it drains; bucketed or not, a tag query
// answers the same, in ascending key order.
func TestBucketHysteresis(t *testing.T) {
	m := New()
	sym := symtab.Intern("hyst")
	li := func() *labelIndex { _, li := m.home(sym, false); return li }
	check := func(n int, bucketed bool) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil || li().all.len() != n || li().bucketed != bucketed {
			t.Fatalf("%d entries, bucketed %v; want %d, %v (%v)", li().all.len(), li().bucketed, n, bucketed, err)
		}
		for tag := int64(0); tag < 3; tag++ {
			var want []string
			m.IterSym(sym, func(tp Tuple, _ int, key string) bool {
				if got, _ := tp.Tag(); got == tag {
					want = append(want, key)
				}
				return true
			})
			var got []string
			m.IterSymTag(sym, tag, func(_ Tuple, _ int, key string) bool { got = append(got, key); return true })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d entries: tag %d enumerates %q, the label list holds %q", n, tag, got, want)
			}
		}
	}
	for i := int64(0); i < bucketAt; i++ {
		m.Add(IntElem(i, "hyst", i%3))
		check(int(i)+1, false)
	}
	m.Add(IntElem(bucketAt, "hyst", 1))
	check(bucketAt+1, true)
	for round := 0; round < 100; round++ { // across the threshold and back
		m.Remove(IntElem(bucketAt, "hyst", 1))
		check(bucketAt, true)
		m.Add(IntElem(bucketAt, "hyst", 1))
		check(bucketAt+1, true)
	}
	for i := int64(bucketAt); i > 0; i-- {
		m.Remove(IntElem(i, "hyst", i%3))
		check(int(i), true)
	}
	m.Remove(IntElem(0, "hyst", 0))
	check(0, false)
	m.Add(IntElem(7, "hyst", 2))
	check(1, false)
}

// TestSmallMultisetFootprint: an empty multiset is one allocation, and the
// paper's Example 1 initial multiset (four elements, four labels) costs
// kilobytes, not the 295 kB of fixed-size maps and chunks it used to.
func TestSmallMultisetFootprint(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { New() }); avg != 1 {
		t.Errorf("New() performs %v allocations, want 1", avg)
	}
	elems := []Tuple{
		Pair(value.Int(1), "A1"), Pair(value.Int(5), "B1"),
		Pair(value.Int(3), "C1"), Pair(value.Int(2), "D1"),
	}
	var m *Multiset
	got := allocBytes(func() { m = New(elems...) })
	if got > 16<<10 {
		t.Errorf("New() + Example 1's four elements allocated %d B, want <= 16 KiB", got)
	}
	if m.Len() != 4 || m.ArenaBytes() == 0 {
		t.Errorf("m = %s, arena %d B", m, m.ArenaBytes())
	}
}

// TestMultisetFootprint is the shape of the one-lock store, in the style of
// dataflow's TestWideAllocShape: the struct is one mutex, one set of lists, one
// freelist and one arena — a few words each, not an array of them — and a
// multiset the size of Example 1's costs what its four elements carve.
func TestMultisetFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Multiset{}); size > 512 {
		t.Errorf("unsafe.Sizeof(Multiset{}) = %d B, want <= 512", size)
	}
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	elems := []Tuple{
		Pair(value.Int(1), "A1"), Pair(value.Int(5), "B1"),
		Pair(value.Int(3), "C1"), Pair(value.Int(2), "D1"),
	}
	New(elems...) // intern the labels
	var m *Multiset
	if got := allocBytes(func() { m = New(elems...) }); got > 2<<10 {
		t.Errorf("New() + Example 1's four elements allocated %d B, want <= 2 kB", got)
	}
	if err := m.CheckInvariants(); err != nil || m.Len() != 4 {
		t.Errorf("m = %s (%v)", m, err)
	}
}

// TestArenaChunksGeometric pins the refill schedule: 1/128 of the maximum,
// doubling, capped — and never smaller than the carve that forced it.
func TestArenaChunksGeometric(t *testing.T) {
	c := 0
	var got []int
	for i := 0; i < 10; i++ {
		c = nextChunk(c, 1, entryChunk)
		got = append(got, c)
	}
	if fmt.Sprint(got) != "[2 4 8 16 32 64 128 256 256 256]" {
		t.Errorf("entry chunk schedule = %v", got)
	}
	if c := nextChunk(0, keyChunk/4, keyChunk); c < keyChunk/4 || c > keyChunk {
		t.Errorf("first key chunk for a maximal key = %d", c)
	}
	// A refill replaces the chunk: earlier carves never move and stay intact.
	var a arena
	var keys []string
	for i := 0; i < 2000; i++ {
		kb := []byte(fmt.Sprintf("key-%04d", i))
		keys = append(keys, a.internKey(kb, len(kb)))
	}
	for i, k := range keys {
		if k != fmt.Sprintf("key-%04d", i) {
			t.Fatalf("key %d reads %q after later carves", i, k)
		}
	}
	if a.bytes < 2000*8 || a.bytes > 2000*8+2*keyChunk {
		t.Errorf("arena accounts %d B for 16000 key bytes", a.bytes)
	}
}

// TestCloneFromEntries: the clone is built from the source's cached keys and
// symbols; it must be equal, fully indexed, and independent both ways.
func TestCloneFromEntries(t *testing.T) {
	m := New()
	for i := int64(0); i < 300; i++ {
		m.AddN(IntElem(i%40, fmt.Sprintf("L%d", i%7), i%3), int(i%4)+1)
		m.Add(New1(value.Int(i % 50)))
	}
	want := m.String()
	c := m.Clone()
	if !c.Equal(m) || c.String() != want || c.Len() != m.Len() || c.Distinct() != m.Distinct() {
		t.Fatalf("clone differs: len %d/%d distinct %d/%d", c.Len(), m.Len(), c.Distinct(), m.Distinct())
	}
	for l := 0; l < 7; l++ {
		label := fmt.Sprintf("L%d", l)
		if fmt.Sprint(c.ByLabel(label)) != fmt.Sprint(m.ByLabel(label)) {
			t.Errorf("ByLabel(%s) differs in the clone", label)
		}
		for tag := int64(0); tag < 3; tag++ {
			if fmt.Sprint(c.ByLabelTag(label, tag)) != fmt.Sprint(m.ByLabelTag(label, tag)) {
				t.Errorf("ByLabelTag(%s, %d) differs in the clone", label, tag)
			}
		}
	}
	// Drain the clone completely, then refill the source: neither sees the other.
	for _, e := range c.Snapshot() {
		for i := 0; i < e.N; i++ {
			if !c.Remove(e.Tuple) {
				t.Fatalf("clone lost %s", e.Tuple)
			}
		}
	}
	if c.Len() != 0 || m.String() != want {
		t.Fatalf("draining the clone changed the source (clone len %d)", c.Len())
	}
	c2 := m.Clone()
	m.Add(IntElem(999, "L0", 0))
	if c2.String() != want {
		t.Error("adding to the source changed an earlier clone")
	}
}

// TestCloneSharesTuples: a clone carves no tuple cells — it links the source's
// cells, sealed by the Clone — and firings in the clone, run while the source is read
// from another goroutine (a reported race under -race if a commit wrote a
// shared cell), leave the source's counts and tuples as they were.
func TestCloneSharesTuples(t *testing.T) {
	m := New()
	for i := int64(0); i < 200; i++ {
		m.AddN(IntElem(i%50, fmt.Sprintf("L%d", i%5), i%4), int(i%3)+1)
	}
	want := m.String()
	c := m.Clone()
	if cap(c.arena.cells) != 0 {
		t.Errorf("clone carved a %d-cell chunk", cap(c.arena.cells))
	}
	src := map[string]Tuple{}
	m.ForEach(func(tp Tuple, _ int) bool { src[tp.Key()] = tp; return true })
	c.ForEach(func(tp Tuple, _ int) bool {
		if &tp[0] != &src[tp.Key()][0] {
			t.Errorf("clone's %s is a copy, not the source's cells", tp)
			return false
		}
		return true
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.ForEach(func(tp Tuple, n int) bool {
				if !tp.Equal(src[tp.Key()]) {
					t.Errorf("source element %s changed", tp)
				}
				return true
			})
		}
	}()
	for _, e := range c.Snapshot() {
		for i := 0; i < e.N; i++ {
			next := Elem(value.Int(e.Tuple.Value().AsInt()+1), "out", 0)
			if ok, _ := c.ApplyDelta([]Tuple{e.Tuple}, nil, []Tuple{next}, nil); !ok {
				t.Fatalf("clone lost %s", e.Tuple)
			}
		}
	}
	wg.Wait()
	if got := m.String(); got != want {
		t.Errorf("firing in the clone changed the source:\n got %s\nwant %s", got, want)
	}
	if c.Len() != m.Len() || len(c.ByLabel("out")) == 0 {
		t.Errorf("clone holds %d elements, want %d, all labeled 'out'", c.Len(), m.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestViewReadersDuringListChurn runs View enumerations of the label lists and
// (label, tag) buckets against a writer that takes every label through
// unbucketed → bucketed → drained, and every bucket through empty → inline
// singleton → spilled list → empty. Under -race (make stress) any parked
// chunk, map slot or lazily made map a reader could still reach is a reported
// race; the readers also check what they see is coherent.
func TestViewReadersDuringListChurn(t *testing.T) {
	labels := []string{"churn-a", "churn-b", "churn-c"}
	syms := make([]symtab.Sym, len(labels))
	for i, l := range labels {
		syms[i] = symtab.Intern(l)
	}
	m := New()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var v View
			for rot := uint64(r); !stop.Load(); rot += 0x9e3779b97f4a7c15 {
				m.LockRead(&v)
				for i, sym := range syms {
					n, prev := 0, ""
					v.EachSym(sym, 0, func(c Ref) bool {
						if l, _ := c.Tuple().Label(); l != labels[i] || c.Count() < 1 || c.Key() <= prev {
							t.Errorf("reader saw %s (count %d) after %q under %s", c.Tuple(), c.Count(), prev, labels[i])
						}
						n, prev = n+1, c.Key()
						return true
					})
					tagged := 0
					for tag := int64(0); tag < 4; tag++ {
						v.EachSymTag(sym, tag, rot, func(c Ref) bool {
							if got, _ := c.Tuple().Tag(); got != tag {
								t.Errorf("reader saw %s under tag %d", c.Tuple(), tag)
							}
							tagged++
							return true
						})
					}
					if tagged != n {
						t.Errorf("label list holds %d, its tag buckets %d", n, tagged)
					}
				}
				v.Unlock()
				runtime.Gosched()
			}
		}(r)
	}
	for round := 0; round < 400; round++ {
		// Per (label, tag) 0–3 entries, added one layer at a time.
		var layers [3][]Tuple
		for i, l := range labels {
			for tag := 0; tag < 4; tag++ {
				for k := 0; k < (round+i+tag)%4; k++ {
					layers[k] = append(layers[k], IntElem(int64(round*3+k), l, int64(tag)))
				}
			}
		}
		for _, layer := range layers {
			if ok, _ := m.ApplyDelta(nil, nil, layer, nil); !ok {
				t.Fatal("produce-only delta refused")
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, layer := range layers { // first in, first out: lists shrink from the front
			if ok, _ := m.ApplyDelta(layer, nil, nil, nil); !ok {
				t.Fatal("consume of what was just produced refused")
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := m.CheckInvariants(); err != nil || m.Len() != 0 {
		t.Errorf("multiset not empty after churn: %s (%v)", m, err)
	}
}
