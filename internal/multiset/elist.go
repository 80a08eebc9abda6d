package multiset

import "sort"

// elist is a paged, chunked ordered list of entries in ascending key order —
// the storage behind a shard's sorted index, every label's all list and every
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
// a converted program holds 0–1 entries under each (label, tag) and flips
// them on every firing. What a flip may touch is fixed here. Inline: a
// bucket's first entry is a pointer in its map slot, no list. Parked: a list
// starts with chunkStart slots and a one-slot page, and one that drains keeps
// its last chunk and page (see remove) for the next insert to revive — at most
// chunkMin slots and pageMin headers, every parked slot nil; a spilled
// bucket's drained list returns to the shard freelist (at most listFreeMax).
// Retained: a labelIndex never leaves its shard's map, so an emptied label
// costs one struct, a parked all list and an empty byTag map — bounded by the
// labels the process ever interned (symtab only grows, and programs, not
// data, populate it).
type elist struct {
	pages   []epage // non-empty, each ascending; pages ascending overall
	nchunks int
	total   int
}

// labelIndex is what a shard holds per label symbol: every entry carrying the
// label, and those with an index tag (IndexTag) again by tag — the
// dynamic-dataflow tag-matching index.
type labelIndex struct {
	all   elist
	byTag map[int64]bucket
}

// bucket is one (label, tag) slot: a single entry inline or, from the second
// on, a list from the shard freelist — never both, and never mapped empty.
type bucket struct {
	one  *entry
	list *elist
}

func (li *labelIndex) addTagged(s *shard, e *entry) {
	switch b := li.byTag[e.tag]; {
	case b.list != nil:
		b.list.insert(e)
	case b.one == nil:
		if li.byTag == nil {
			li.byTag = make(map[int64]bucket)
		}
		li.byTag[e.tag] = bucket{one: e}
	default:
		b.list = s.getList()
		b.list.insert(b.one)
		b.list.insert(e)
		li.byTag[e.tag] = bucket{list: b.list}
	}
}

func (li *labelIndex) removeTagged(s *shard, e *entry) {
	if l := li.byTag[e.tag].list; l != nil {
		if l.remove(e.key); l.len() > 0 {
			return
		}
		s.putList(l)
	}
	delete(li.byTag, e.tag)
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

// lastKey returns the largest key in the page (pages and chunks are never
// empty).
func (p epage) lastKey() string {
	c := p[len(p)-1]
	return c[len(c)-1].key
}

// pageFor returns the index of the first page whose last key is >= key: the
// only page that can contain key. Equals len(l.pages) when key sorts after
// everything.
func (l *elist) pageFor(key string) int {
	return sort.Search(len(l.pages), func(i int) bool {
		return l.pages[i].lastKey() >= key
	})
}

// chunkFor returns the index of the first chunk in p whose last key is >=
// key, len(p) when key sorts after the whole page.
func chunkFor(p epage, key string) int {
	return sort.Search(len(p), func(i int) bool {
		c := p[i]
		return c[len(c)-1].key >= key
	})
}

// insert places e by ascending key. Keys are unique (one entry per distinct
// tuple), so equality cannot occur.
func (l *elist) insert(e *entry) {
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
	pi := l.pageFor(e.key)
	if pi == len(l.pages) {
		pi-- // beyond every key: grow the last page
	}
	p := l.pages[pi]
	ci := chunkFor(p, e.key)
	if ci == len(p) {
		ci-- // beyond the page (only possible in the last one): grow its last chunk
	}
	c := p[ci]
	i := sort.Search(len(c), func(i int) bool { return c[i].key >= e.key })
	c = append(c, nil)
	copy(c[i+1:], c[i:])
	c[i] = e
	p[ci] = c
	if len(c) > chunkMax {
		l.splitChunk(pi, ci)
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

// remove deletes the entry with the given key, if present.
func (l *elist) remove(key string) {
	pi := l.pageFor(key)
	if pi == len(l.pages) {
		return
	}
	p := l.pages[pi]
	ci := chunkFor(p, key)
	if ci == len(p) {
		return
	}
	c := p[ci]
	i := sort.Search(len(c), func(i int) bool { return c[i].key >= key })
	if i >= len(c) || c[i].key != key {
		return
	}
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
			return
		}
		l.pages[0] = p[:0]
		l.pages = l.pages[:0]
		l.nchunks = 0
	case len(c) == 0:
		l.dropChunk(pi, ci)
	case len(c) < chunkMin:
		l.mergeChunk(pi, ci)
	}
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

// each walks every entry in ascending key order until fn returns false.
// Reports whether the walk ran to completion.
func (l *elist) each(fn func(e *entry) bool) bool {
	for _, p := range l.pages {
		for _, c := range p {
			for _, e := range c {
				if !fn(e) {
					return false
				}
			}
		}
	}
	return true
}

// eachRot walks every entry exactly once starting at a rotated position
// derived from r — chunk index and in-chunk offset are picked independently,
// so distinct workers probing the same index start on distinct cache lines —
// until fn returns false; it reports whether the walk ran to completion.
// The distribution over entries need not be uniform: rotation exists to
// decorrelate concurrent searchers (the model's nondeterministic selection),
// and the walk stays exhaustive, which is what correctness needs.
func (l *elist) eachRot(r uint64, fn func(e *entry) bool) bool {
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
	// Tail of the starting chunk, the following chunks wrapping around, then
	// the head of the starting chunk.
	for _, e := range start[off:] {
		if !fn(e) {
			return false
		}
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
		for _, e := range l.pages[p][c] {
			if !fn(e) {
				return false
			}
		}
	}
	for _, e := range start[:off] {
		if !fn(e) {
			return false
		}
	}
	return true
}

// ecursor is a forward cursor over an elist, used by IterAll's cross-shard
// ordered merge.
type ecursor struct {
	l   *elist
	pi  int
	ci  int
	off int
}

// peek returns the entry under the cursor, nil at the end.
func (c *ecursor) peek() *entry {
	if c.pi >= len(c.l.pages) {
		return nil
	}
	return c.l.pages[c.pi][c.ci][c.off]
}

func (c *ecursor) advance() {
	c.off++
	if c.off < len(c.l.pages[c.pi][c.ci]) {
		return
	}
	c.off = 0
	c.ci++
	if c.ci < len(c.l.pages[c.pi]) {
		return
	}
	c.ci = 0
	c.pi++
}
