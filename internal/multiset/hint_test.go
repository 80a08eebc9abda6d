package multiset

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/symtab"
	"repro/internal/value"
)

// TestHandleSize pins the handle at 16 bytes: the slot hint lives in what was
// padding after gen.
func TestHandleSize(t *testing.T) {
	if n := unsafe.Sizeof(Ref{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(Ref{}) = %d, want 16", n)
	}
}

// hintEl is the hint fixture's element shape: i, then label H, then a string
// s — not an index tag, so H is never bucketed and its all list is the only
// list an entry is in. Elements with one i sort together, by s.
func hintEl(i int, s string) Tuple { return Tuple{value.Int(int64(i)), value.Str("H"), value.Str(s)} }

// hintFixture is 10⁴ elements under H, spanning pages.
func hintFixture(t *testing.T) (*Multiset, *elist) {
	t.Helper()
	m := New()
	for i := 0; i < 10000; i++ {
		m.Add(hintEl(i, "m"))
	}
	home, _ := m.home(symtab.Intern("H"), false)
	if len(home.pages) < 2 || len(home.pages[0]) < 4 {
		t.Fatalf("fixture: %d pages, %d chunks on the first", len(home.pages), len(home.pages[0]))
	}
	return m, home
}

// handleAt returns the handle a View's walk of label sym hands out for the
// entry at p of l, and checks that its slot says p.
func handleAt(t *testing.T, m *Multiset, sym string, l *elist, p epos) Ref {
	t.Helper()
	want := l.pages[p.pi][p.ci].live()[p.i]
	var got Ref
	var v View
	m.LockRead(&v)
	v.EachSym(symtab.Intern(sym), 0, func(r Ref) bool {
		if r.e == want {
			got = r
		}
		return got.e == nil
	})
	v.Unlock()
	if got.e == nil || got.at.pos() != p {
		t.Fatalf("the walk handed out slot %+v for the entry at %+v", got.at.pos(), p)
	}
	return got
}

// holds reports whether r's slot still holds its entry in l.
func holds(l *elist, r Ref) bool {
	p := r.at.pos()
	return p.pi < len(l.pages) && p.ci < len(l.pages[p.pi]) && p.i < l.pages[p.pi][p.ci].len() &&
		l.pages[p.pi][p.ci].live()[p.i] == r.e
}

// consumeChecked commits refs through a write session and checks that the
// commit applied, the multiset's invariants, and that each consumed tuple is
// gone. With hinted set it first blanks each entry's key: only the slot can
// then find it, and a keyed search would unlink the list head instead.
func consumeChecked(t *testing.T, m *Multiset, hinted bool, refs ...Ref) {
	t.Helper()
	var gone []Tuple
	for _, r := range refs {
		gone = append(gone, r.e.tuple)
		if hinted {
			r.e.key = ""
		}
	}
	if !consumeByRef(m, refs) {
		t.Fatal("the commit refused live handles")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, tp := range gone {
		if m.Count(tp) != 0 {
			t.Fatalf("%v still held", tp)
		}
	}
}

// removeChecked consumes the first n entries of chunk ci of page pi in one
// commit by key, the door that carries no slot, and checks the invariants.
func removeChecked(t *testing.T, m *Multiset, l *elist, pi, ci, n int) {
	t.Helper()
	var ts []Tuple
	for _, e := range l.pages[pi][ci].live()[:n] {
		ts = append(ts, e.tuple)
	}
	if !m.TryRemoveAll(ts) {
		t.Fatal("key-addressed consume refused")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// growChunk inserts elements right after the head of chunk ci of page pi
// until it holds n entries (n <= chunkMax: no split).
func growChunk(m *Multiset, l *elist, pi, ci, n int) {
	head := l.pages[pi][ci].live()[0].tuple[0].AsInt()
	for j := 0; l.pages[pi][ci].len() < n; j++ {
		m.Add(hintEl(int(head), fmt.Sprintf("n%05d", j)))
	}
}

// TestHandleSlotHint commits handle-addressed deltas on a list of 10⁴
// entries: a fresh handle unlinks at its slot, found by no key; a handle
// whose slot went stale since the walk — a chunk split, a merge, a drop
// or a page split — or that names a place in another list is found by its key,
// and never unlinks the entry its slot now holds.
func TestHandleSlotHint(t *testing.T) {
	t.Run("chunk head and tail", func(t *testing.T) {
		m, l := hintFixture(t)
		consumeChecked(t, m, true, handleAt(t, m, "H", l, epos{0, 1, 0}))
		consumeChecked(t, m, true, handleAt(t, m, "H", l, epos{0, 1, l.pages[0][1].len() - 1}))
		last := len(l.pages) - 1
		consumeChecked(t, m, true, handleAt(t, m, "H", l, epos{last, len(l.pages[last]) - 1, l.pages[last][len(l.pages[last])-1].len() - 1}))
	})
	t.Run("two from one chunk, walk order", func(t *testing.T) {
		m, l := hintFixture(t)
		a, b := handleAt(t, m, "H", l, epos{0, 2, 5}), handleAt(t, m, "H", l, epos{0, 2, 6})
		consumeChecked(t, m, true, a, b) // b unlinks first, so a's slot still holds a
	})
	t.Run("two from one chunk, reverse order", func(t *testing.T) {
		m, l := hintFixture(t)
		a, b := handleAt(t, m, "H", l, epos{0, 2, 5}), handleAt(t, m, "H", l, epos{0, 2, 6})
		consumeChecked(t, m, false, b, a) // a unlinks first and b's slot goes stale
	})
	t.Run("chunk split", func(t *testing.T) {
		m, l := hintFixture(t)
		r := handleAt(t, m, "H", l, epos{0, 1, l.pages[0][1].len() - 1})
		for j, n := 0, l.nchunks; l.nchunks == n; j++ {
			m.Add(hintEl(int(r.e.tuple[0].AsInt()), fmt.Sprintf("a%05d", j))) // sorts just before r
		}
		if holds(l, r) {
			t.Fatal("the split left the slot holding its entry")
		}
		consumeChecked(t, m, false, r)
	})
	t.Run("merge", func(t *testing.T) {
		m, l := hintFixture(t)
		r := handleAt(t, m, "H", l, epos{0, 2, 0})
		removeChecked(t, m, l, 0, 1, l.pages[0][1].len()-chunkMin)
		for n := l.nchunks; l.nchunks == n; {
			removeChecked(t, m, l, 0, 1, 1)
		}
		if holds(l, r) {
			t.Fatal("the merge left the slot holding its entry")
		}
		consumeChecked(t, m, false, r)
	})
	t.Run("drop", func(t *testing.T) {
		m, l := hintFixture(t)
		growChunk(m, l, 0, 0, chunkMax) // full neighbours: chunk 1 merges into
		growChunk(m, l, 0, 2, chunkMax) // neither, it drains to nothing
		r := handleAt(t, m, "H", l, epos{0, 2, 0})
		n := l.nchunks
		removeChecked(t, m, l, 0, 1, l.pages[0][1].len()-1)
		removeChecked(t, m, l, 0, 1, 1)
		if l.nchunks != n-1 || l.pages[0][1].live()[0] != r.e {
			t.Fatal("chunk 1 was merged, not dropped")
		}
		if holds(l, r) {
			t.Fatal("the drop left the slot holding its entry")
		}
		consumeChecked(t, m, false, r)
	})
	t.Run("page split", func(t *testing.T) {
		m, l := hintFixture(t)
		r := handleAt(t, m, "H", l, epos{1, 0, 0})
		for j, n := 0, len(l.pages); len(l.pages) == n; j++ {
			m.Add(hintEl(int(l.pages[0][0].live()[0].tuple[0].AsInt()), fmt.Sprintf("n%05d", j)))
		}
		if holds(l, r) {
			t.Fatal("the page split left the slot holding its entry")
		}
		consumeChecked(t, m, false, r)
	})
	t.Run("slot of another list", func(t *testing.T) {
		m, l := hintFixture(t)
		for i := 0; i < 3; i++ {
			m.Add(Pair(value.Int(int64(i)), "O"))
		}
		o, _ := m.home(symtab.Intern("O"), false)
		r := handleAt(t, m, "H", l, epos{0, 1, 7})
		r.at = handleAt(t, m, "O", o, epos{0, 0, 1}).at // in H's list, another entry's place
		if holds(l, r) {
			t.Fatal("fixture: the foreign slot should hold another entry")
		}
		consumeChecked(t, m, false, r)
		r = handleAt(t, m, "H", l, epos{0, 1, 7})
		r.at = epos{1 << 15, 63, 1023}.slot() // past every page
		consumeChecked(t, m, false, r)
	})
	t.Run("bucket walk", func(t *testing.T) {
		m := New()
		for i := 0; i < 10000; i++ {
			m.Add(IntElem(int64(i), "T", int64(i%8)))
		}
		home, li := m.home(symtab.Intern("T"), false)
		if li.byTag[3].list == nil {
			t.Fatal("fixture: tag 3 should have a spilled bucket")
		}
		var rs []Ref
		var v View
		m.LockRead(&v)
		v.EachSymTag(li.sym, 3, 0, func(r Ref) bool { rs = append(rs, r); return len(rs) < 40 })
		v.Unlock()
		r := rs[len(rs)-1]
		if holds(home, r) {
			t.Fatal("fixture: a bucket slot should not hold the entry in its home list")
		}
		consumeChecked(t, m, false, r)
	})
}
