package multiset

// Partition empties the session's multiset into k fresh ones — sub-solutions
// that may each evolve on their own (firings on disjoint elements commute)
// until Absorb brings back what is left. The entry structs move, re-owned, in
// walk order, each to its new list's end. An element with an index tag goes to
// part tag mod k, keeping one dataflow iteration's operands together; the
// rest are dealt out in turn. The parts number their commits from m's counter.
func (v *View) Partition(k int) []*Multiset {
	m := v.session()
	parts := make([]*Multiset, k)
	for i := range parts {
		parts[i] = &Multiset{id: lastID.Add(1), commitSeq: m.commitSeq}
	}
	m.moveAll(func(e *entry, nth int) *Multiset {
		if e.hasTag {
			nth = int(uint64(e.tag) % uint64(k))
		}
		return parts[nth%k]
	})
	return parts
}

// Absorb moves what is left in parts, which no one else may be using, back into
// the session's multiset with the account of the arena bytes they carved. A
// handle issued before a Partition or an Absorb fails afterwards: owner, gen.
func (v *View) Absorb(parts []*Multiset) {
	m := v.session()
	for _, p := range parts {
		p.moveAll(func(*entry, int) *Multiset { return m })
		m.arena.bytes += p.arena.bytes
		p.arena.bytes = 0
	}
}

func (v *View) session() *Multiset {
	if !v.locked || !v.write {
		panic("multiset: Partition and Absorb need a write session")
	}
	return v.m
}

// moveAll drains src, list by list in ascending order, into the multisets to
// names for each entry and its position in the walk, src's own carves theirs.
func (src *Multiset) moveAll(to func(e *entry, nth int) *Multiset) {
	nth, epoch := 0, src.epoch.Load()
	src.eachRot(0, func(e *entry, _ slot) bool {
		src.size.Add(-int64(e.count))
		to(e, nth).adopt(e, e.mark == epoch+1)
		nth++
		return true
	})
	src.bare = elist{}
	for _, li := range src.labels {
		li.all, li.byTag, li.bucketed = elist{}, nil, false
	}
}

// adopt links e, an entry of another multiset (its carves that one's own if
// own), into m: at its home list's end when its key is the greatest, else
// where locate says or finds it.
func (m *Multiset) adopt(e *entry, own bool) {
	home, li := &m.bare, (*labelIndex)(nil)
	if e.li != nil {
		home, li = m.home(e.li.sym, true)
	}
	m.size.Add(int64(e.count))
	at := home.end()
	if home.len() > 0 && home.pages[at.pi][at.ci].lastKey() >= e.key {
		var have *entry
		if at, have = locate(home, e.key); have != nil {
			have.count += e.count
			*e = entry{gen: e.gen + 1}
			return
		}
	}
	if e.owner, e.li, e.gen, e.mark = m.id, li, e.gen+1, 0; own {
		e.own(m, int(e.kcap))
	}
	home.insertAt(at, e)
	if li != nil {
		li.linked(e)
	}
}
