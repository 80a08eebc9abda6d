package multiset

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/symtab"
	"repro/internal/value"
)

// addOneByOne is the reference build: one Add per element, in order.
func addOneByOne(ts []Tuple) *Multiset {
	m := &Multiset{id: lastID.Add(1)}
	m.commitSeq = &m.seq
	for _, t := range ts {
		m.Add(t)
	}
	return m
}

// walk0 renders m's rotation-0 walk, entry by entry with its count.
func walk0(m *Multiset) string {
	var b strings.Builder
	m.IterAllRot(0, func(t Tuple, n int, _ string) bool {
		fmt.Fprintf(&b, "%s×%d ", t, n)
		return true
	})
	return b.String()
}

// labelSyms returns m's label symbols in walk order.
func labelSyms(m *Multiset) []symtab.Sym {
	var syms []symtab.Sym
	for _, li := range m.labels {
		syms = append(syms, li.sym)
	}
	return syms
}

// checkParseMatchesAdds holds Parse(src) to the multiset one Add per element
// builds: equal, printed alike, the same rotation-0 walk and the same labels
// in the same order, and its invariants. It reports whether src parsed.
func checkParseMatchesAdds(t *testing.T, src string) bool {
	t.Helper()
	m, err := Parse(src)
	elems, err2 := parseElems(src, new(arena))
	if (err == nil) != (err2 == nil) {
		t.Fatalf("Parse(%q) = %v but the scanner alone = %v", src, err, err2)
	}
	if err != nil {
		return false
	}
	ref := addOneByOne(elems)
	if !m.Equal(ref) || m.String() != ref.String() {
		t.Fatalf("Parse(%q) = %s, one Add per element gives %s", src, m, ref)
	}
	if got, want := walk0(m), walk0(ref); got != want {
		t.Fatalf("Parse(%q): walk\n%s\none Add per element walks\n%s", src, got, want)
	}
	if got, want := labelSyms(m), labelSyms(ref); !slices.Equal(got, want) {
		t.Fatalf("Parse(%q): labels %v, one Add per element %v", src, got, want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return true
}

// randomLiteral renders n elements drawn from a few shapes — bare scalars,
// pairs, tagged triples, quoted strings holding commas and brackets — with
// values dense enough to repeat, under labels one of which may far outgrow a
// chunk.
func randomLiteral(rng *rand.Rand, n int) string {
	labels := []string{"'L0'", "'L1'", `"d,q"`, "'x]['", "'big'"}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		v := rng.Intn(n + 1)
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "[%d]", v)
		case 1:
			fmt.Fprintf(&b, "[%d.5, %s]", v, labels[rng.Intn(len(labels))])
		case 2:
			fmt.Fprintf(&b, "[%d, %s, %d]", v, labels[rng.Intn(len(labels))], rng.Intn(4))
		case 3:
			fmt.Fprintf(&b, "['s,%d', 'L1']", v%7)
		default:
			fmt.Fprintf(&b, "[%d, 'big']", v)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// TestParseDifferential runs the Parse oracle on random literals of up to
// 3 000 elements, a label among them spanning several chunks, and checks that
// a literal that does not scan interns nothing.
func TestParseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 2, 5, 17, 100, 700, 3000} {
		for rep := 0; rep < 3; rep++ {
			if !checkParseMatchesAdds(t, randomLiteral(rng, n)) {
				t.Fatalf("random literal of %d elements did not parse", n)
			}
		}
	}
	const fresh = "parse-differential-never-interned"
	before := symtab.Len()
	if _, err := Parse("{[1, '" + fresh + "'], [2, 'L0'], [3, @]}"); err == nil {
		t.Fatal("a malformed element parsed")
	}
	if _, ok := symtab.SymOf(fresh); ok || symtab.Len() != before {
		t.Fatalf("a literal that failed to scan interned its labels (%d → %d symbols)", before, symtab.Len())
	}
}

// TestNewDifferential holds New(ts...) to one Add per element on the random
// literals' elements — equal, printed alike, the same walk and labels — and
// to its own copy of them: the caller may reuse its tuples afterwards.
func TestNewDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{1, 3, 40, 900, 2500} {
		ts, err := parseElems(randomLiteral(rng, n), new(arena))
		if err != nil {
			t.Fatal(err)
		}
		m, ref := New(ts...), addOneByOne(ts)
		want := ref.String()
		if !m.Equal(ref) || m.String() != want || walk0(m) != walk0(ref) || !slices.Equal(labelSyms(m), labelSyms(ref)) {
			t.Fatalf("n=%d: New gives %s, one Add per element %s", n, m, want)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, tp := range ts {
			tp[0] = value.Str("overwritten")
		}
		if got := m.String(); got != want {
			t.Fatalf("n=%d: overwriting the arguments changed the multiset to %s", n, got)
		}
	}
}

// TestParseAllocShape holds Parse's cost to its elements: parsing 16, 256
// and 4 096 labeled elements makes at most 1.5 allocations per element at 16
// and 0.25 from 256 on — the parse itself allocates a fixed handful, the
// lists one chunk per few hundred entries — never more per element than at
// the smaller size, and at most 320 B per element, never more than 1.5 times
// the 16's figure.
func TestParseAllocShape(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxBytes, flat = 320.0, 1.5
	var prevA, baseB float64
	for _, n := range []int{16, 256, 4096} {
		var b strings.Builder
		b.WriteByte('{')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "[%d, 'L0']", i*7919%(4*n))
		}
		src := b.String() + "}"
		var m *Multiset
		allocs, bytes := ^uint64(0), ^uint64(0)
		var x, y runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&x)
			m, _ = Parse(src)
			runtime.ReadMemStats(&y)
			allocs, bytes = min(allocs, y.Mallocs-x.Mallocs), min(bytes, y.TotalAlloc-x.TotalAlloc)
		}
		if m == nil || m.Len() != n {
			t.Fatalf("n=%d: Parse gave %v", n, m)
		}
		perA, perB := float64(allocs)/float64(n), float64(bytes)/float64(n)
		t.Logf("n=%d: %d allocations (%.3f per element), %d B (%.0f per element)", n, allocs, perA, bytes, perB)
		if maxA := map[bool]float64{true: 1.5, false: 0.25}[n == 16]; perA > maxA || perB > maxBytes {
			t.Errorf("n=%d: %.3f allocations and %.0f B per element, ceilings %.2f and %.0f", n, perA, perB, maxA, maxBytes)
		}
		if prevA > 0 && (perA > prevA || perB > flat*baseB) {
			t.Errorf("n=%d: %.3f allocations and %.0f B per element against %.3f and %.0f below it: not flat", n, perA, perB, prevA, baseB)
		}
		if baseB == 0 {
			baseB = perB
		}
		prevA = perA
	}
}

// TestElistDoubleEndedChurn drives random inserts and removes — at the head,
// the tail and anywhere — against a sorted-slice model. After every step the
// list walks the model's order, every entry is found by seek from every slot
// handed out for it since (the current one in one check, stale ones by key),
// and no slot outside a chunk's entries holds one; a removal at a chunk's
// head or tail moves no other entry pointer; a drained list parks only nil
// slots; and a window sliding through one chunk allocates nothing.
func TestElistDoubleEndedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var l elist
	var model []*entry // ascending by key
	slots := map[*entry][]slot{}
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	at := func(e *entry) int {
		i, _ := slices.BinarySearchFunc(model, e.key, func(x *entry, k string) int { return strings.Compare(x.key, k) })
		return i
	}
	check := func(step int) {
		t.Helper()
		i := 0
		l.eachRot(0, func(e *entry, s slot) bool {
			if i >= len(model) || model[i] != e {
				t.Fatalf("step %d: entry %d of the walk is %q, the model's %v", step, i, e.key, model[i:min(i+1, len(model))])
			}
			slots[e] = append(slots[e][max(0, len(slots[e])-3):], s)
			i++
			return true
		})
		if i != len(model) || l.len() != len(model) {
			t.Fatalf("step %d: walked %d, len %d, model %d", step, i, l.len(), len(model))
		}
		for _, e := range model {
			for _, s := range slots[e] {
				if p := l.seek(e, s); l.pages[p.pi][p.ci].live()[p.i] != e {
					t.Fatalf("step %d: seek(%q, %+v) = %+v, which holds another entry", step, e.key, s.pos(), p)
				}
			}
		}
		checkElistSlack(t, &l)
	}
	// ends removes the head or tail of a chunk holding more than chunkMin
	// entries (so nothing merges) and checks every other entry of the chunk
	// kept its slot in the backing array.
	ends := func(step int) {
		var full []epos
		for pi, p := range l.pages {
			for ci, c := range p {
				if c.len() > chunkMin+1 {
					full = append(full, epos{pi, ci, 0})
				}
			}
		}
		if len(full) == 0 {
			return
		}
		p := full[rng.Intn(len(full))]
		c := &l.pages[p.pi][p.ci]
		addr := map[*entry]**entry{}
		for k := c.lo; k < len(c.buf); k++ {
			addr[c.buf[k]] = &c.buf[k]
		}
		if rng.Intn(2) == 0 {
			p.i = c.len() - 1
		}
		gone := c.live()[p.i]
		l.removeAt(p)
		model = slices.Delete(model, at(gone), at(gone)+1)
		delete(addr, gone)
		delete(slots, gone)
		for e, a := range addr {
			if *a != e {
				t.Fatalf("step %d: removing a chunk's entry %d of %d moved %q", step, p.i, len(addr)+1, e.key)
			}
		}
	}
	// Grow past one directory page, then churn at about that population.
	const grow, steps = 12000, 3000
	for step := 0; step < grow+steps; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || step < grow:
			var e *entry
			switch k := rng.Intn(3 * grow); {
			case r == 0 && len(model) > 0 && len(model[0].key) > 2: // just below the head
				e = &entry{key: model[0].key[:len(model[0].key)-1]}
			case r == 1 && len(model) > 0: // just past the tail
				e = &entry{key: model[len(model)-1].key + "+"}
			default:
				e = &entry{key: key(k)}
			}
			if i := at(e); i < len(model) && model[i].key == e.key {
				continue
			}
			l.insert(e)
			model = slices.Insert(model, at(e), e)
		case r < 7:
			ends(step)
		default:
			i := rng.Intn(len(model))
			e := model[i]
			l.removeAt(l.seek(e, 0))
			model = slices.Delete(model, i, i+1)
			delete(slots, e)
		}
		if step%1000 == 0 || step > grow && step%25 == 0 {
			check(step)
		}
	}
	check(-1)
	if len(l.pages) < 2 {
		t.Fatalf("%d entries in %d chunks fill %d page: want more", len(model), l.nchunks, len(l.pages))
	}
	for _, i := range rng.Perm(len(model)) {
		l.removeAt(l.seek(model[i], 0))
	}
	if l.len() != 0 || !l.drainedClean() {
		t.Fatalf("drained list: len %d, clean %v", l.len(), l.drainedClean())
	}
	checkElistSlack(t, &l)

	// A sliding window in one chunk — take the head, put the next key past the
	// tail, a queue drained as a tournament stage drains its label — makes
	// no allocation: the gap the head leaves is taken back before the chunk
	// would grow, its capacity never lost.
	if raceEnabled {
		return
	}
	var one elist
	pool := make([]*entry, 2600)
	for i := range pool {
		pool[i] = &entry{key: key(i)}
	}
	for _, e := range pool[:300] {
		one.insert(e)
	}
	next := 300
	slide := func() {
		one.removeAt(epos{})
		one.insert(pool[next])
		next++
	}
	for next < 600 {
		slide()
	}
	var x, y runtime.MemStats
	runtime.ReadMemStats(&x)
	for next < len(pool) {
		slide()
	}
	runtime.ReadMemStats(&y)
	if allocs := y.Mallocs - x.Mallocs; allocs != 0 || one.nchunks != 1 {
		t.Errorf("sliding window in one chunk: %d allocations in 2000 steps, %d chunks", allocs, one.nchunks)
	}
	checkElist(t, &one)
}
