package multiset

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/symtab"
	"repro/internal/value"
)

// refsOf returns m's handles for ts, as a matcher's View would have issued
// them; a tuple m does not hold gets the zero Ref.
func refsOf(m *Multiset, ts []Tuple) []Ref {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	refs := make([]Ref, len(ts))
	for i, t := range ts {
		v.EachAll(0, func(c Ref) bool {
			if c.Tuple().Equal(t) {
				refs[i] = c
			}
			return refs[i].e == nil
		})
	}
	return refs
}

// commitIn commits dl in a write session of its own, the engine's door, and
// returns what View.Commit does.
func commitIn(m *Multiset, dl Delta, numbered bool, syms []symtab.Sym) (uint64, bool, []symtab.Sym) {
	var v View
	m.LockWrite(&v)
	defer v.Unlock()
	return v.Commit(&dl, numbered, syms)
}

// consumeByRef commits one handle-addressed delta and reports whether it applied.
func consumeByRef(m *Multiset, refs []Ref, produce ...Tuple) bool {
	_, ok, _ := commitIn(m, Delta{Refs: refs, Produce: produce}, false, nil)
	return ok
}

// TestStaleHandleFailsClaim is the pool's ABA case made deterministic: a
// handle issued under a View, the element consumed by another commit, and the
// very same entry struct re-issued from the freelist for a different
// tuple before the handle's own commit runs. The claim must fail — by gen —
// and leave the multiset alone; it must never consume the new tenant.
func TestStaleHandleFailsClaim(t *testing.T) {
	a, b := IntElem(1, "A", 0), IntElem(2, "A", 0)
	m := New(a)
	stale := refsOf(m, []Tuple{a})
	if ok, _ := m.ApplyDelta([]Tuple{a}, nil, []Tuple{b}, nil); !ok {
		t.Fatal("key-addressed consume refused")
	}
	fresh := refsOf(m, []Tuple{b})
	if fresh[0].e != stale[0].e || fresh[0].gen == stale[0].gen {
		t.Fatalf("entry struct not recycled with a new gen: %+v then %+v", stale[0], fresh[0])
	}
	if consumeByRef(m, stale, IntElem(3, "A", 0)) {
		t.Fatalf("stale handle consumed the struct's new tenant: %s", m)
	}
	if m.String() != "{[2, 'A', 0]}" || m.CheckInvariants() != nil {
		t.Fatalf("failed claim changed the multiset: %s (%v)", m, m.CheckInvariants())
	}
	// A handle to a consumed element whose struct is not re-issued fails too,
	// as does the zero handle; the live one commits, once.
	if !consumeByRef(m, fresh) || consumeByRef(m, fresh) || consumeByRef(m, []Ref{{}}) || m.Len() != 0 {
		t.Fatalf("live handle did not commit exactly once: %s", m)
	}
}

// TestHandleMultiplicityAndAnnihilation: handles claim like keys — the same
// handle twice needs two occurrences — and a product equal to a consumed
// element leaves its entry, and so its outstanding handles, untouched.
func TestHandleMultiplicityAndAnnihilation(t *testing.T) {
	x := Pair(value.Int(7), "X")
	m := New(x)
	r := refsOf(m, []Tuple{x})
	if consumeByRef(m, []Ref{r[0], r[0]}) {
		t.Fatal("two claims on one occurrence applied")
	}
	m.Add(x)
	if !consumeByRef(m, []Ref{r[0], r[0]}, x) || m.Count(x) != 1 {
		t.Fatalf("consume twice, produce once: %s", m)
	}
	if !consumeByRef(m, r) || m.Len() != 0 || m.CheckInvariants() != nil {
		t.Fatalf("handle did not survive the annihilated commit: %s", m)
	}
}

// TestHandleFromCloneRefused: a handle is bound to the Multiset that issued
// it; the clone's equal element is a different entry, and committing one
// side's handle to the other is refused, not aliased.
func TestHandleFromCloneRefused(t *testing.T) {
	x := IntElem(1, "A", 0)
	m := New(x)
	c := m.Clone()
	if consumeByRef(m, refsOf(c, []Tuple{x})) || consumeByRef(c, refsOf(m, []Tuple{x})) {
		t.Fatal("a handle committed to a multiset that did not issue it")
	}
	if !m.Equal(c) || m.Len() != 1 || !consumeByRef(c, refsOf(c, []Tuple{x})) || c.Len() != 0 || m.Len() != 1 {
		t.Fatalf("m = %s, clone = %s", m, c)
	}
}

// TestCheckInvariantsCatchesCorruption breaks each invariant by hand and
// expects CheckInvariants to say so. Label A is past bucketAt, so it is
// bucketed; label B is not.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	build := func() (*Multiset, *entry) {
		m := New(IntElem(1, "A", 0), IntElem(2, "A", 1), IntElem(3, "A", 1), Pair(value.Int(4), "A"), IntElem(6, "A", 2),
			IntElem(7, "B", 0), New1(value.Int(9)))
		m.Add(IntElem(5, "A", 0))
		m.Remove(IntElem(5, "A", 0)) // leaves an entry on the freelist
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		symA := symtab.Intern("A")
		_, liA := m.home(symA, false)
		_, liB := m.home(symtab.Intern("B"), false)
		if !liA.bucketed || liB.byTag != nil {
			t.Fatal("fixture: A should be bucketed, B never")
		}
		return m, find(m, symA, IntElem(1, "A", 0).Key())
	}
	for name, corrupt := range map[string]func(m *Multiset, e *entry){
		"Len":        func(m *Multiset, e *entry) { m.size.Add(1) },
		"count":      func(m *Multiset, e *entry) { e.count = 0 },
		"home list":  func(m *Multiset, e *entry) { e.li.all.remove(e.key) },
		"wrong home": func(m *Multiset, e *entry) { e.li.all.remove(e.key); m.bare.insert(e) },
		"two homes":  func(m *Multiset, e *entry) { m.bare.insert(e) },
		"li disagrees with labels": func(m *Multiset, e *entry) {
			li := *e.li
			m.labels[slices.Index(m.labels, e.li)] = &li
		},
		"label order":                     func(m *Multiset, e *entry) { m.labels = append(m.labels, e.li) },
		"cached tag":                      func(m *Multiset, e *entry) { e.tag = 7 },
		"bucket unlink":                   func(m *Multiset, e *entry) { m.unlinkSkippingBucket(e) },
		"bucket missing":                  func(m *Multiset, e *entry) { delete(e.li.byTag, 0) },
		"stale bucket after un-bucketing": func(m *Multiset, e *entry) { e.li.bucketed = false },
		"bucketed and drained": func(m *Multiset, e *entry) {
			_, li := m.home(symtab.Intern("drained"), true)
			li.bucketed = true
		},
		"bucket both":      func(m *Multiset, e *entry) { e.li.byTag[0] = bucket{one: e, list: new(elist)} },
		"bucket empty":     func(m *Multiset, e *entry) { e.li.byTag[5] = bucket{} },
		"bucket wrong tag": func(m *Multiset, e *entry) { e.li.byTag[1].list.insert(e) },
		"owner":            func(m *Multiset, e *entry) { e.owner++ },
		// A move between multisets (Partition, Absorb) done by halves: the entry
		// adopted elsewhere and still linked here, and one adopted here that
		// still says it is its old multiset's.
		"linked in two multisets": func(m *Multiset, e *entry) {
			New().adopt(e, false)
		},
		"adopted, owner left behind": func(m *Multiset, e *entry) {
			o := New(IntElem(8, "A", 3))
			oe := find(o, e.li.sym, IntElem(8, "A", 3).Key())
			m.adopt(oe, false)
			oe.owner = o.id
		},
		"freelist": func(m *Multiset, e *entry) { m.free = append(m.free, &entry{key: "left behind"}) },
		// A carve recycled while an entry still holds it, or recycled twice.
		"spare in use": func(m *Multiset, e *entry) { m.spare = append(m.spare, spare{cells: e.tuple}) },
		"spare twice":  func(m *Multiset, e *entry) { m.spare = append(m.spare, m.spare[0]) },
		"spare key used": func(m *Multiset, e *entry) {
			m.spare = append(m.spare, spare{key: unsafe.Slice(unsafe.StringData(e.key), len(e.key))})
		},
		"parked slot": func(m *Multiset, e *entry) {
			l, _ := m.home(symtab.Intern("drained"), true)
			l.insert(e)
			l.remove(e.key)
			l.pages[:1][0][:1][0].buf[:1][0] = e
		},
	} {
		m, e := build()
		corrupt(m, e)
		if err := m.CheckInvariants(); err == nil || !strings.HasPrefix(err.Error(), "multiset: ") {
			t.Errorf("%s: CheckInvariants = %v, want a violation", name, err)
		}
	}
}

// unlinkSkippingBucket is unlink with the seeded defect the invariant check
// exists for: the entry leaves its home list but not its (label, tag) bucket.
func (m *Multiset) unlinkSkippingBucket(e *entry) {
	e.hasTag = false
	m.unlink(e, 0)
}
