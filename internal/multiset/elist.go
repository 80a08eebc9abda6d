package multiset

import (
	"slices"
	"sort"

	"repro/internal/symtab"
)

// elist is a paged, chunked ordered list of entries in ascending key order —
// the storage behind the bare list, every label's all list and every
// spilled (label, tag) bucket.
//
// Entries live in double-ended chunks (chunk) of at most chunkMax and chunks
// in directory pages of at most pageMax, so an insert or remove memmoves at
// most half a chunk of pointers and a split or drop one page of headers,
// whatever the population. The matcher relies on exact ascending-key order
// from rotation 0 (the golden schedules observe it) and on cheap positional
// rotation: a walk starts at a chosen offset instead of copying the index.
//
// Chunks stay within [chunkMin, chunkMax] and pages within [pageMin,
// pageMax], but for the last survivor at each level: a split at >max yields
// two halves, a removal below min merges into a neighbor when the result
// fits, and the wide bands keep an insert/remove cycle at a boundary from
// thrashing. A list starts with chunkStart slots and a one-slot page, and one
// that drains parks its last chunk and page (see removeAt) for the next
// insert to revive — at most chunkMin slots and pageMin headers, all nil — so
// an Algorithm 1 label, which flips 0–2 entries every firing, allocates
// nothing, and an emptied label costs one struct and a parked list.
type elist struct {
	pages   []epage // non-empty, each ascending; pages ascending overall
	nchunks int
	total   int
}

// labelIndex is what a multiset holds per label symbol: all, the home list of
// every entry carrying the label, and — only while bucketed — those with an
// index tag (IndexTag) again by tag, the tag-matching index. Up to bucketAt
// entries a tag query is a filtered walk of all (an Algorithm 1 image never
// touches a map); the buckets are built past it and dropped only on a drain.
type labelIndex struct {
	sym      symtab.Sym
	all      elist
	byTag    map[int64]bucket // empty unless bucketed
	bucketed bool
}

// bucketAt is the label population a tag query still scans.
const bucketAt = 4

// bucket is one (label, tag) slot: a single entry inline or, from the second
// on, a list — never both, and never mapped empty.
type bucket struct {
	one  *entry
	list *elist
}

// linked files e, just inserted into li.all, under its tag: into its bucket
// when li is bucketed, and into fresh buckets along with everything else in
// all when e is what takes the label past bucketAt.
func (li *labelIndex) linked(e *entry) {
	switch {
	case li.bucketed:
		li.addTagged(e)
	case li.all.len() > bucketAt:
		li.bucketed = true
		li.all.eachRot(0, func(e *entry, _ slot) bool { li.addTagged(e); return true })
	}
}

// unlinked is linked's inverse, called once e has left li.all.
func (li *labelIndex) unlinked(e *entry) {
	if li.bucketed && e.hasTag {
		if l := li.byTag[e.tag].list; l == nil || l.removeAt(l.seek(e, 0)) == 0 { // keyed: no slot is the bucket's
			delete(li.byTag, e.tag)
		}
	}
	li.bucketed = li.bucketed && li.all.len() > 0
}

func (li *labelIndex) addTagged(e *entry) {
	if !e.hasTag {
		return
	}
	switch b := li.byTag[e.tag]; {
	case b.list != nil:
		b.list.insert(e)
	case b.one == nil:
		if li.byTag == nil {
			li.byTag = make(map[int64]bucket)
		}
		li.byTag[e.tag] = bucket{one: e}
	default:
		b.list = new(elist)
		b.list.insert(b.one)
		b.list.insert(e)
		li.byTag[e.tag] = bucket{list: b.list}
	}
}

// eachTag walks the entries of li tagged tag from rotation rot: the bucket
// when li is bucketed, else all, filtered on the cached tag. A bucket's slots
// are places in the bucket list: seek does not find the entry there.
func (li *labelIndex) eachTag(tag int64, rot uint64, fn func(*entry, slot) bool) bool {
	if !li.bucketed {
		return li.all.eachRot(rot, func(e *entry, at slot) bool { return !e.hasTag || e.tag != tag || fn(e, at) })
	}
	b := li.byTag[tag]
	if b.list == nil {
		return b.one == nil || fn(b.one, 0)
	}
	return b.list.eachRot(rot, fn)
}

// epage is one directory page: a short ordered run of chunks.
type epage []chunk

// chunk is one run of a list's entries, ascending: buf[lo:], after a nil gap
// that keeps buf's backing array from its first slot. A remove or insert
// moves the shorter side of its position — the head through the gap, or the
// tail — so either end costs no move, and the gap is capacity an insert takes
// back (room), never lost. Offsets and slots count from lo: walkers see what
// a gapless chunk would hold.
type chunk struct {
	buf []*entry
	lo  int
}

func (c chunk) live() []*entry { return c.buf[c.lo:] }
func (c chunk) len() int       { return len(c.buf) - c.lo }

// lastKey returns the largest key in the chunk (chunks are never empty).
func (c chunk) lastKey() string { return c.buf[len(c.buf)-1].key }

// insert places e at offset i, moving the shorter side it has room for.
func (c *chunk) insert(i int, e *entry) {
	if n := c.len(); c.lo > 0 && i < n-i {
		c.lo--
		copy(c.buf[c.lo:], c.buf[c.lo+1:c.lo+1+i])
		c.buf[c.lo+i] = e
		return
	}
	c.room(1)
	if c.buf = append(c.buf, e); c.lo+i < len(c.buf)-1 {
		copy(c.buf[c.lo+i+1:], c.buf[c.lo+i:])
		c.buf[c.lo+i] = e
	}
}

// remove deletes the entry at offset i, shifting the shorter side.
func (c *chunk) remove(i int) {
	if i < c.len()-1-i {
		copy(c.buf[c.lo+1:], c.buf[c.lo:c.lo+i])
		c.buf[c.lo] = nil
		c.lo++
		return
	}
	at := c.lo + i
	copy(c.buf[at:], c.buf[at+1:])
	c.buf[len(c.buf)-1] = nil
	c.buf = c.buf[:len(c.buf)-1]
}

// room makes space for k more entries past the end by moving the entries
// down into the gap, so a chunk grows only when every slot is taken.
func (c *chunk) room(k int) {
	if cap(c.buf)-len(c.buf) >= k || c.lo == 0 {
		return
	}
	n := copy(c.buf, c.live())
	clear(c.buf[n:])
	c.buf, c.lo = c.buf[:n], 0
}

const (
	chunkMax   = 512
	chunkMin   = 64
	chunkStart = 4
	pageMax    = 32
	pageMin    = 4
)

func (l *elist) len() int { return l.total }

// epos is a position in an elist: page, chunk, offset in the chunk.
type epos struct{ pi, ci, i int }

// slot is an epos packed into 32 bits — offset in the low 10, chunk in the
// next 6, page in the top 16 — so a Ref carries where its View met the entry
// in its padding. It is a hint, never trusted unchecked (seek): a page index
// past 16 bits wraps to a place that holds some other entry, or none.
type slot uint32

func (p epos) slot() slot { return slot(p.pi)<<16 | slot(p.ci&63)<<10 | slot(p.i&1023) }
func (s slot) pos() epos  { return epos{int(s >> 16), int(s >> 10 & 63), int(s & 1023)} }

// seek returns e's position in l, its home list: the hinted slot when e is
// still there — one check, whatever the list's size — else (a split, merge or
// drop since the hint was taken, or a hint from another list) the position
// its key locates.
func (l *elist) seek(e *entry, hint slot) epos {
	if at := hint.pos(); at.pi < len(l.pages) && at.ci < len(l.pages[at.pi]) {
		if c := l.pages[at.pi][at.ci].live(); at.i < len(c) && c[at.i] == e {
			return at
		}
	}
	at, _ := locate(l, e.key)
	return at
}

// locate finds key, a string or its bytes: the entry filed under it and its
// position, or nil and where an entry with that key belongs — one search for
// membership, multiplicity (an equal key is the same tuple) and placement.
func locate[K string | []byte](l *elist, key K) (epos, *entry) {
	var at epos
	if l.nchunks == 0 {
		return at, nil
	}
	if l.nchunks > 1 {
		// The first page, then chunk, whose last key is >= key is the only one
		// that can hold it; past every key, the last of each grows.
		at.pi = sort.Search(len(l.pages)-1, func(i int) bool { p := l.pages[i]; return p[len(p)-1].lastKey() >= string(key) })
		p := l.pages[at.pi]
		at.ci = sort.Search(len(p)-1, func(i int) bool { return p[i].lastKey() >= string(key) })
	}
	c := l.pages[at.pi][at.ci].live()
	lo, hi := 0, len(c)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); c[mid].key < string(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if at.i = lo; lo < len(c) && c[lo].key == string(key) {
		return at, c[lo]
	}
	return at, nil
}

// end is the position past the last entry: where a key above every key goes.
func (l *elist) end() epos {
	if l.nchunks == 0 {
		return epos{}
	}
	pi := len(l.pages) - 1
	ci := len(l.pages[pi]) - 1
	return epos{pi, ci, l.pages[pi][ci].len()}
}

// insert places e by ascending key. Keys are unique (one entry per distinct
// tuple): the caller has established that e.key is absent.
func (l *elist) insert(e *entry) {
	at, _ := locate(l, e.key)
	l.insertAt(at, e)
}

// insertAt places e at the position locate returned for its key.
func (l *elist) insertAt(at epos, e *entry) {
	l.total++
	if len(l.pages) == 0 {
		if cap(l.pages) == 0 { // nothing parked: start small
			l.pages = []epage{{{buf: make([]*entry, 0, chunkStart)}}}
		}
		// Revive the page and chunk parked in slot 0 of their directories.
		l.pages = l.pages[:1]
		l.pages[0] = l.pages[0][:1]
		l.pages[0][0].buf = append(l.pages[0][0].buf, e)
		l.nchunks = 1
		return
	}
	c := &l.pages[at.pi][at.ci]
	c.insert(at.i, e)
	if c.len() > chunkMax {
		l.splitChunk(at.pi, at.ci)
	}
}

// splitChunk halves chunk ci of page pi in place; the header memmove is
// bounded by pageMax.
func (l *elist) splitChunk(pi, ci int) {
	p := l.pages[pi]
	c := p[ci].live()
	mid := len(c) / 2
	right := make([]*entry, len(c)-mid, chunkMax/2+chunkMin)
	copy(right, c[mid:])
	clear(c[mid:])
	p[ci].buf = p[ci].buf[:p[ci].lo+mid]
	l.pages[pi] = slices.Insert(p, ci+1, chunk{buf: right})
	l.nchunks++
	if len(l.pages[pi]) > pageMax {
		l.splitPage(pi)
	}
}

// splitPage halves page pi in place, splitChunk one level up.
func (l *elist) splitPage(pi int) {
	p := l.pages[pi]
	mid := len(p) / 2
	right := make(epage, len(p)-mid, pageMax/2+pageMin)
	copy(right, p[mid:])
	clear(p[mid:])
	l.pages[pi] = p[:mid]
	l.pages = slices.Insert(l.pages, pi+1, right)
}

// removeAt deletes the entry at position at, which holds one, and returns
// how many entries remain.
func (l *elist) removeAt(at epos) int {
	pi, ci := at.pi, at.ci
	p := l.pages[pi]
	c := &p[ci]
	c.remove(at.i)
	l.total--
	switch {
	case l.total == 0:
		// Drained: park the sole chunk and page, emptied, in slot 0 of their
		// directories for the next insert — unless one outgrew the bound.
		if cap(c.buf) > chunkMin || cap(p) > pageMin || cap(l.pages) > pageMin {
			*l = elist{}
			return 0
		}
		c.buf, c.lo = c.buf[:0], 0
		l.pages[0] = p[:0]
		l.pages = l.pages[:0]
		l.nchunks = 0
	case c.len() == 0:
		l.dropChunk(pi, ci)
	case c.len() < chunkMin:
		l.mergeChunk(pi, ci)
	}
	return l.total
}

func (l *elist) dropChunk(pi, ci int) {
	p := slices.Delete(l.pages[pi], ci, ci+1)
	l.pages[pi] = p
	l.nchunks--
	switch {
	case len(p) == 0:
		l.pages = slices.Delete(l.pages, pi, pi+1)
	case len(p) < pageMin:
		l.mergePage(pi)
	}
}

// mergeChunk folds the underfull chunk ci into a same-page neighbor when the
// combination stays within chunkMax; otherwise the small chunk persists.
// Merges stay page-local: at most two small chunks per page boundary.
func (l *elist) mergeChunk(pi, ci int) {
	p := l.pages[pi]
	if ci+1 < len(p) && p[ci].len()+p[ci+1].len() <= chunkMax {
		p[ci].room(p[ci+1].len())
		p[ci].buf = append(p[ci].buf, p[ci+1].live()...)
		l.dropChunk(pi, ci+1)
		return
	}
	if ci > 0 && p[ci-1].len()+p[ci].len() <= chunkMax {
		p[ci-1].room(p[ci].len())
		p[ci-1].buf = append(p[ci-1].buf, p[ci].live()...)
		l.dropChunk(pi, ci)
	}
}

// mergePage folds the underfull page pi into a neighbor when the combination
// stays within pageMax; mirrors mergeChunk one level up.
func (l *elist) mergePage(pi int) {
	if pi+1 < len(l.pages) && len(l.pages[pi])+len(l.pages[pi+1]) <= pageMax {
		l.pages[pi] = append(l.pages[pi], l.pages[pi+1]...)
		l.pages = slices.Delete(l.pages, pi+1, pi+2)
		return
	}
	if pi > 0 && len(l.pages[pi-1])+len(l.pages[pi]) <= pageMax {
		l.pages[pi-1] = append(l.pages[pi-1], l.pages[pi]...)
		l.pages = slices.Delete(l.pages, pi, pi+1)
	}
}

// eachRot walks every entry exactly once, until fn returns false, from a
// position derived from r — chunk and in-chunk offset picked independently;
// not uniform, but exhaustive, which is what the model's nondeterministic
// selection needs — and reports whether it ran to completion. fn gets each
// entry with its slot, the hint a Ref carries to the commit.
func (l *elist) eachRot(r uint64, fn func(*entry, slot) bool) bool {
	if l.nchunks == 0 {
		return true
	}
	// The rotated chunk; the page scan is O(#pages), once per walk.
	g := int(uint32(r) % uint32(l.nchunks))
	pi := 0
	for g >= len(l.pages[pi]) {
		g -= len(l.pages[pi])
		pi++
	}
	ci := g
	n := l.pages[pi][ci].len()
	off := int(uint32(r>>32) % uint32(n))
	// run walks chunk c of page p from offset i to j.
	run := func(p, c, i, j int) bool {
		at := epos{p, c, i}.slot()
		for _, e := range l.pages[p][c].live()[i:j] {
			if !fn(e, at) {
				return false
			}
			at++
		}
		return true
	}
	// Tail of the starting chunk, the following chunks wrapping around, then
	// the head of the starting chunk.
	if !run(pi, ci, off, n) {
		return false
	}
	for p, c := pi, ci; ; {
		c++
		if c >= len(l.pages[p]) {
			p, c = p+1, 0
		}
		if p >= len(l.pages) {
			p, c = 0, 0
		}
		if p == pi && c == ci {
			break
		}
		if !run(p, c, 0, l.pages[p][c].len()) {
			return false
		}
	}
	return run(pi, ci, 0, off)
}
