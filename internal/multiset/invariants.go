package multiset

import (
	"fmt"
	"slices"

	"repro/internal/symtab"
)

// CheckInvariants verifies, under a View of every shard, what the commit core
// and the handle contract rely on, and returns the first violation: Len is the
// sum of counts; every entry is linked exactly once in byKey, sorted, its
// label's all list and, when tagged, its bucket, each ascending by key; no
// bucket is both inline and spilled, or mapped empty; freelist entries are
// zeroed except gen; drained lists hold only nil slots. A full walk — the
// differential and stress tests call it after every commit.
func (m *Multiset) CheckInvariants() (err error) {
	var v View
	m.LockView(&v, nil, true)
	defer v.Unlock()
	total := 0
	for si := range m.shards {
		s := &m.shards[si]
		fail := func(format string, a ...any) bool {
			if err == nil {
				err = fmt.Errorf("multiset: shard %d: %s", si, fmt.Sprintf(format, a...))
			}
			return false
		}
		live := func(e *entry) bool { return e != nil && e.owner == m.id && e.count > 0 && s.byKey[e.key] == e }
		// walk checks one index list — ascending live entries that all belong
		// (member), nothing parked behind a drained one — and returns its length.
		walk := func(what string, l *elist, member func(*entry) bool) int {
			n, prev := 0, ""
			l.each(func(e *entry) bool {
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
		labeled, tagged := 0, 0
		if n := walk("sorted", &s.sorted, func(e *entry) bool {
			total += e.count
			if e.sym != symtab.None {
				labeled++
			}
			if e.hasTag {
				tagged++
			}
			return e.key == e.tuple.Key() && e.sym == labelSymOf(e.tuple) && shardIndex(e.sym, e.key) == uint32(si)
		}); n != len(s.byKey) {
			fail("sorted holds %d entries, byKey %d", n, len(s.byKey))
		}
		for sym, li := range s.labels {
			labeled -= walk("label list", &li.all, func(e *entry) bool { return e.sym == sym })
			for tag, b := range li.byTag {
				in := func(e *entry) bool { return e.sym == sym && e.hasTag && e.tag == tag }
				switch {
				case b.list == nil && live(b.one) && in(b.one):
					tagged--
				case b.one == nil && b.list != nil && b.list.len() > 0:
					tagged -= walk("bucket", b.list, in)
				default:
					fail("bucket (%d, %d) is empty, stale, or both inline and spilled", sym, tag)
				}
			}
		}
		if labeled != 0 || tagged != 0 {
			fail("%d labeled and %d tagged entries are not in their label index exactly once", labeled, tagged)
		}
		for _, e := range s.free {
			if e.tuple != nil || e.key != "" || e.count != 0 || e.owner != 0 || e.tag != 0 || e.sym != 0 || e.hasTag {
				fail("freelist entry not zeroed: %+v", *e)
			}
		}
		for _, l := range s.freeLists {
			walk("freelist list", l, func(*entry) bool { return false })
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
			if slices.ContainsFunc(c[:cap(c)], func(e *entry) bool { return e != nil }) {
				return false
			}
		}
	}
	return true
}
