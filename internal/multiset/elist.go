package multiset

import (
	"sort"

	"repro/internal/symtab"
)

// elist is a paged, chunked ordered list of entries in ascending key order —
// the storage behind the bare list, every label's all list and every
// spilled (label, tag) bucket.
//
// Entries live in chunks of at most chunkMax and chunks in directory pages of
// at most pageMax, so an insert or remove memmoves at most one chunk of
// pointers and a chunk split or drop at most one page of headers, whatever
// the population. Two properties the matcher relies on hold exactly:
//
//   - exact ascending-key iteration order, which the deterministic sequential
//     matcher (and the golden traces pinned on it) observe;
//   - cheap positional rotation, which the matcher uses to start candidate
//     enumeration at a chosen offset (rotation 0 is the ascending walk)
//     instead of copying the index per probe.
//
// Chunk sizes stay within [chunkMin, chunkMax] and pages within
// [pageMin, pageMax] (except the last survivor at each level): a split at
// >max yields two halves, a removal that drains below min merges into a
// neighbor when the result fits. The wide hysteresis bands mean an
// insert/remove cycle at a boundary cannot thrash split/merge.
//
// Cost tracks contents: Algorithm 1 makes every dataflow edge one element, so
// a converted program holds 0–2 entries under each label and flips them on
// every firing — one remove from and one insert into the label's list, and
// nothing else. A list starts with chunkStart slots and a one-slot page, and
// one that drains keeps its last chunk and page parked (see removeAt) for the
// next insert to revive — at most chunkMin slots and pageMin headers, every
// parked slot nil. A labelIndex never leaves its multiset, so an emptied label
// costs one struct and a parked list — bounded by the labels the process ever
// interned (symtab only grows, and programs, not data, populate it).
type elist struct {
	pages   []epage // non-empty, each ascending; pages ascending overall
	nchunks int
	total   int
}

// labelIndex is what a multiset holds per label symbol: all, the home list of
// every entry carrying the label, and — only while bucketed — those with an
// index tag (IndexTag) again by tag, the dynamic-dataflow tag-matching index.
// A label of at most bucketAt entries answers a tag query by a filtered walk
// of all, so an Algorithm 1 image never touches a map; the buckets are built
// when all outgrows bucketAt and dropped only when it drains, so churn across
// the threshold cannot thrash.
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
type epage [][]*entry

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
	if at := hint.pos(); at.pi < len(l.pages) && at.ci < len(l.pages[at.pi]) &&
		at.i < len(l.pages[at.pi][at.ci]) && l.pages[at.pi][at.ci][at.i] == e {
		return at
	}
	at, _ := locate(l, e.key)
	return at
}

// lastKey returns the largest key in the chunk (chunks are never empty).
func lastKey(c []*entry) string { return c[len(c)-1].key }

// locate finds key, held as a string or as the bytes of one: the entry filed
// under it and its position, or nil and the position an entry with that key
// belongs at. One search serves membership, multiplicity (an equal key is the
// same tuple: count it, do not insert) and placement. Comparing against
// string(key) converts nothing.
func locate[K string | []byte](l *elist, key K) (epos, *entry) {
	var at epos
	if l.nchunks == 0 {
		return at, nil
	}
	if l.nchunks > 1 {
		// The first page, then chunk, whose last key is >= key is the only one
		// that can hold it; past every key, the last of each grows.
		at.pi = sort.Search(len(l.pages)-1, func(i int) bool { p := l.pages[i]; return lastKey(p[len(p)-1]) >= string(key) })
		p := l.pages[at.pi]
		at.ci = sort.Search(len(p)-1, func(i int) bool { return lastKey(p[i]) >= string(key) })
	}
	c := l.pages[at.pi][at.ci]
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
	return epos{pi, ci, len(l.pages[pi][ci])}
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
			l.pages = []epage{{make([]*entry, 0, chunkStart)}}
		}
		// Revive the page and chunk parked in slot 0 of their directories.
		l.pages = l.pages[:1]
		l.pages[0] = l.pages[0][:1]
		l.pages[0][0] = append(l.pages[0][0], e)
		l.nchunks = 1
		return
	}
	p := l.pages[at.pi]
	c := append(p[at.ci], nil)
	copy(c[at.i+1:], c[at.i:])
	c[at.i] = e
	p[at.ci] = c
	if len(c) > chunkMax {
		l.splitChunk(at.pi, at.ci)
	}
}

// splitChunk halves chunk ci of page pi in place; the header memmove is
// bounded by pageMax.
func (l *elist) splitChunk(pi, ci int) {
	p := l.pages[pi]
	c := p[ci]
	mid := len(c) / 2
	right := make([]*entry, len(c)-mid, chunkMax/2+chunkMin)
	copy(right, c[mid:])
	for i := mid; i < len(c); i++ {
		c[i] = nil
	}
	p[ci] = c[:mid]
	p = append(p, nil)
	copy(p[ci+2:], p[ci+1:])
	p[ci+1] = right
	l.pages[pi] = p
	l.nchunks++
	if len(p) > pageMax {
		l.splitPage(pi)
	}
}

// splitPage halves page pi in place; the page-directory memmove is over a
// directory pageMax times shorter than the chunk population.
func (l *elist) splitPage(pi int) {
	p := l.pages[pi]
	mid := len(p) / 2
	right := make(epage, len(p)-mid, pageMax/2+pageMin)
	copy(right, p[mid:])
	for i := mid; i < len(p); i++ {
		p[i] = nil
	}
	l.pages[pi] = p[:mid]
	l.pages = append(l.pages, nil)
	copy(l.pages[pi+2:], l.pages[pi+1:])
	l.pages[pi+1] = right
}

// removeAt deletes the entry at position at, which holds one, and returns
// how many entries remain.
func (l *elist) removeAt(at epos) int {
	pi, ci, i := at.pi, at.ci, at.i
	p := l.pages[pi]
	c := p[ci]
	copy(c[i:], c[i+1:])
	c[len(c)-1] = nil
	c = c[:len(c)-1]
	p[ci] = c
	l.total--
	switch {
	case l.total == 0:
		// Drained: park the sole chunk and page, emptied, in slot 0 of their
		// directories for the next insert — unless one outgrew the bound.
		if cap(c) > chunkMin || cap(p) > pageMin || cap(l.pages) > pageMin {
			*l = elist{}
			return 0
		}
		l.pages[0] = p[:0]
		l.pages = l.pages[:0]
		l.nchunks = 0
	case len(c) == 0:
		l.dropChunk(pi, ci)
	case len(c) < chunkMin:
		l.mergeChunk(pi, ci)
	}
	return l.total
}

func (l *elist) dropChunk(pi, ci int) {
	p := l.pages[pi]
	copy(p[ci:], p[ci+1:])
	p[len(p)-1] = nil
	p = p[:len(p)-1]
	l.pages[pi] = p
	l.nchunks--
	switch {
	case len(p) == 0:
		l.dropPage(pi)
	case len(p) < pageMin:
		l.mergePage(pi)
	}
}

func (l *elist) dropPage(pi int) {
	copy(l.pages[pi:], l.pages[pi+1:])
	l.pages[len(l.pages)-1] = nil
	l.pages = l.pages[:len(l.pages)-1]
}

// mergeChunk folds the underfull chunk ci into a same-page neighbor when the
// combination stays within chunkMax; otherwise the small chunk simply
// persists (it is still ordered and bounded below only by emptiness). Not
// merging across a page boundary keeps the operation page-local; at most two
// persistent small chunks per page boundary is within the hysteresis budget.
func (l *elist) mergeChunk(pi, ci int) {
	p := l.pages[pi]
	if ci+1 < len(p) && len(p[ci])+len(p[ci+1]) <= chunkMax {
		p[ci] = append(p[ci], p[ci+1]...)
		l.dropChunk(pi, ci+1)
		return
	}
	if ci > 0 && len(p[ci-1])+len(p[ci]) <= chunkMax {
		p[ci-1] = append(p[ci-1], p[ci]...)
		l.dropChunk(pi, ci)
	}
}

// mergePage folds the underfull page pi into a neighbor when the combination
// stays within pageMax; mirrors mergeChunk one level up.
func (l *elist) mergePage(pi int) {
	if pi+1 < len(l.pages) && len(l.pages[pi])+len(l.pages[pi+1]) <= pageMax {
		l.pages[pi] = append(l.pages[pi], l.pages[pi+1]...)
		l.dropPage(pi + 1)
		return
	}
	if pi > 0 && len(l.pages[pi-1])+len(l.pages[pi]) <= pageMax {
		l.pages[pi-1] = append(l.pages[pi-1], l.pages[pi]...)
		l.dropPage(pi)
	}
}

// eachRot walks every entry exactly once starting at a rotated position
// derived from r — chunk index and in-chunk offset are picked independently,
// so distinct workers probing the same index start on distinct cache lines —
// until fn returns false; it reports whether the walk ran to completion.
// The distribution over entries need not be uniform: rotation exists to
// decorrelate concurrent searchers (the model's nondeterministic selection),
// and the walk stays exhaustive, which is what correctness needs. fn gets each
// entry with its slot, the hint a Ref carries to the commit.
func (l *elist) eachRot(r uint64, fn func(*entry, slot) bool) bool {
	if l.nchunks == 0 {
		return true
	}
	// Locate the rotated global chunk index; the page scan is O(#pages),
	// which eachRot callers (one scan per probe over many candidates) absorb.
	g := int(uint32(r) % uint32(l.nchunks))
	pi := 0
	for g >= len(l.pages[pi]) {
		g -= len(l.pages[pi])
		pi++
	}
	ci := g
	start := l.pages[pi][ci]
	off := int(uint32(r>>32) % uint32(len(start)))
	// run walks chunk c of page p from offset i to j.
	run := func(p, c, i, j int) bool {
		at := epos{p, c, i}.slot()
		for _, e := range l.pages[p][c][i:j] {
			if !fn(e, at) {
				return false
			}
			at++
		}
		return true
	}
	// Tail of the starting chunk, the following chunks wrapping around, then
	// the head of the starting chunk.
	if !run(pi, ci, off, len(start)) {
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
		if !run(p, c, 0, len(l.pages[p][c])) {
			return false
		}
	}
	return run(pi, ci, 0, off)
}
