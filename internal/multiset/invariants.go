package multiset

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/symtab"
)

// CheckInvariants verifies what the commit core and the handle contract rely
// on, and returns the first violation: Len is the sum of counts; every entry
// is filed once, in its home list (that of the label index e.li names, or
// bare) and, iff its label is bucketed, in its bucket; lists ascend by key and
// labels by symbol; no bucket is mapped unbucketed, empty, or both inline and
// spilled; freelist entries are zeroed but for gen; no spare's cells or key
// bytes are an entry's or another spare's; drained lists hold only nil slots.
// The differential and stress tests call it after every commit.
func (m *Multiset) CheckInvariants() error {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	return v.CheckInvariants()
}

// CheckInvariants is Multiset.CheckInvariants from inside a session, taking no
// lock of its own.
func (v *View) CheckInvariants() (err error) {
	m, total := v.held(), 0
	fail := func(format string, a ...any) bool {
		if err == nil {
			err = fmt.Errorf("multiset: "+format, a...)
		}
		return false
	}
	live := func(e *entry) bool { return e != nil && e.owner == m.id && e.count > 0 }
	spares := make(map[unsafe.Pointer]bool, 2*len(m.spare)) // each spare carve's first cell or byte
	claim := func(p unsafe.Pointer, n int) bool {
		dup := n > 0 && spares[p]
		spares[p] = spares[p] || n > 0
		return !dup
	}
	for _, sp := range m.spare {
		if !claim(unsafe.Pointer(unsafe.SliceData(sp.cells)), cap(sp.cells)) || !claim(unsafe.Pointer(unsafe.SliceData(sp.key)), cap(sp.key)) {
			fail("spare carve %v / %q recycled twice", sp.cells, sp.key)
		}
	}
	// walk checks one list — ascending live entries that all belong
	// (member), nothing parked behind a drained one — and returns its length.
	walk := func(what string, l *elist, member func(*entry) bool) int {
		n, prev := 0, ""
		l.eachRot(0, func(e *entry, _ slot) bool {
			if !live(e) || (n > 0 && e.key <= prev) || !member(e) {
				return fail("%s: entry %d misplaced after %q", what, n, prev)
			}
			n, prev = n+1, e.key
			return true
		})
		if n != l.len() || (n == 0 && !l.drainedClean()) {
			fail("%s: %d entries walked, len %d, or a parked slot is not nil", what, n, l.len())
		}
		return n
	}
	// home checks an entry found in the home list of li: it says so itself
	// and what it caches agrees with its tuple.
	tagged := 0
	home := func(li *labelIndex) func(*entry) bool {
		return func(e *entry) bool {
			total += e.count
			tag, hasTag := int64(0), false
			if li != nil && len(e.tuple) >= 3 {
				tag, hasTag = IndexTag(e.tuple[2])
			}
			if hasTag {
				tagged++
			}
			sym, _ := knownSymOf(e.tuple)
			return e.li == li && (li == nil && sym == symtab.None || li != nil && li.sym == sym) &&
				e.key == e.tuple.Key() && e.tag == tag && e.hasTag == hasTag &&
				!spares[unsafe.Pointer(unsafe.SliceData(e.tuple))] && !spares[unsafe.Pointer(unsafe.StringData(e.key))]
		}
	}
	walk("bare list", &m.bare, home(nil))
	for i, li := range m.labels {
		if li.sym == symtab.None || (i > 0 && m.labels[i-1].sym >= li.sym) {
			fail("label %d out of order", li.sym)
		}
		tagged = 0
		n := walk("label list", &li.all, home(li))
		if (li.bucketed && n == 0) || (!li.bucketed && len(li.byTag) != 0) {
			fail("label %d: %d entries, bucketed %v, %d buckets mapped", li.sym, n, li.bucketed, len(li.byTag))
		}
		if !li.bucketed {
			continue
		}
		for tag, b := range li.byTag {
			in := func(e *entry) bool {
				_, filed := locate(&li.all, e.key)
				return filed == e && e.hasTag && e.tag == tag
			}
			switch {
			case b.list == nil && live(b.one) && in(b.one):
				tagged--
			case b.one == nil && b.list != nil && b.list.len() > 0:
				tagged -= walk("bucket", b.list, in)
			default:
				fail("bucket (%d, %d) is empty, stale, or both inline and spilled", li.sym, tag)
			}
		}
		if tagged != 0 {
			fail("label %d: %d tagged entries are missing from its buckets", li.sym, tagged)
		}
	}
	for _, e := range m.free {
		if e.tuple != nil || e.key != "" || e.count != 0 || e.owner != 0 || e.tag != 0 || e.li != nil || e.hasTag || e.mark != 0 || e.kcap != 0 {
			fail("freelist entry not zeroed: %+v", *e)
		}
	}
	if err == nil && total != m.Len() {
		err = fmt.Errorf("multiset: Len %d, counts sum to %d", m.Len(), total)
	}
	return err
}

// drainedClean reports whether every slot a drained list still owns — its
// parked page and chunk — is nil.
func (l *elist) drainedClean() bool {
	for _, p := range l.pages[:cap(l.pages)] {
		for _, c := range p[:cap(p)] {
			if slices.ContainsFunc(c.buf[:cap(c.buf)], func(e *entry) bool { return e != nil }) {
				return false
			}
		}
	}
	return true
}
