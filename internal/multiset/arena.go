package multiset

import (
	"unsafe"

	"repro/internal/value"
)

// arena amortizes the three allocations that linking a distinct tuple into a
// multiset otherwise costs — the entry struct, the key string and the copy of
// the tuple cells — by carving each from append-only chunks. Later carves
// append past a carve, and a full chunk is replaced, not grown (growing would
// move live carves), so a carve never moves: the unsafe.String key views rest
// on that. The arena itself never rewrites one; the multiset may, once the
// entry holding it is unlinked, if no surface handed it out (carve, seal), so
// a Clone shares its source's carves and a trace keeps what it was given.
//
// Chunks are geometric: the first of each kind is 1/128 of its maximum
// (entryChunk, keyChunk, cellChunk), each replacement doubles up to it, and a
// bulk build's run (reserve) takes one chunk (nextChunk). bytes totals the
// chunk memory carved (Multiset.ArenaBytes). A long-lived carve pins its
// chunk; all methods need the write lock.
type arena struct {
	entries []entry
	keys    []byte
	cells   []value.Value
	bytes   int64
}

const (
	entryChunk = 256
	keyChunk   = 4096
	cellChunk  = 1024
)

// nextChunk returns the capacity of the chunk replacing one of capacity c
// that cannot hold need more items: double, from limit/128, up to limit — or
// past it a bulk build's run (reserve) rounded up to whole chunks of limit,
// whose room the single carves after it fill as they would a fresh arena's.
func nextChunk(c, need, limit int) int {
	if need > limit {
		return (need + limit - 1) / limit * limit
	}
	c = min(max(2*c, limit/128), limit)
	for c < need {
		c *= 2
	}
	return c
}

// fit returns chunk when it has room for n more items, else its replacement
// (refill, kept apart so this check inlines), whose bytes it accounts.
func fit[T any](chunk []T, n, limit int, bytes *int64) []T {
	if cap(chunk)-len(chunk) >= n {
		return chunk
	}
	return refill(chunk, n, limit, bytes)
}

func refill[T any](chunk []T, n, limit int, bytes *int64) []T {
	var item T
	chunk = make([]T, 0, nextChunk(cap(chunk), n, limit))
	*bytes += int64(cap(chunk)) * int64(unsafe.Sizeof(item))
	return chunk
}

// reserve makes room for a bulk build's n entries, k key bytes and c cells in
// one chunk each: the geometric chunk a first carve would open when it holds
// the run — a run that fits a first chunk leaves the room single carves
// would — else one of the run rounded up to whole maximum chunks (nextChunk).
// Keys and cells, which a commit reuses only from the next one, round up past
// whole chunks: the first products after a run of whole chunks find room.
func (a *arena) reserve(n, k, c int) {
	a.entries = fit(a.entries, n, entryChunk, &a.bytes)
	a.keys = fit(a.keys, k+k/keyChunk, keyChunk, &a.bytes)
	a.cells = fit(a.cells, c+c/cellChunk, cellChunk, &a.bytes)
}

// newEntry carves a zeroed entry, switching to a fresh chunk when full.
func (a *arena) newEntry() *entry {
	a.entries = fit(a.entries, 1, entryChunk, &a.bytes)
	a.entries = a.entries[:len(a.entries)+1]
	return &a.entries[len(a.entries)-1]
}

// internKey copies the fingerprint bytes into a carve of c >= len(kb) bytes
// of the key chunk and returns a string viewing them. Oversized keys get their
// own allocation so one huge key cannot waste most of a chunk.
func (a *arena) internKey(kb []byte, c int) string {
	n := len(kb)
	if n == 0 {
		return ""
	}
	if n > keyChunk/4 {
		return unsafe.String(&append(make([]byte, 0, c), kb...)[0], n)
	}
	a.keys = fit(a.keys, c, keyChunk, &a.bytes)
	off := len(a.keys)
	a.keys = append(a.keys, kb...)[:off+c]
	return unsafe.String(&a.keys[off], n)
}

// cloneTuple copies t's cells into the cells of into when they hold them
// (keeping its capacity), else into the cell chunk, and returns a tuple over
// them, equivalent to t.Clone() without the per-tuple allocation.
func (a *arena) cloneTuple(t, into Tuple) Tuple {
	n := len(t)
	if n <= cap(into) {
		return into[:copy(into[:n], t)]
	}
	if n > cellChunk/4 {
		return t.Clone()
	}
	a.cells = fit(a.cells, n, cellChunk, &a.bytes)
	off := len(a.cells)
	a.cells = append(a.cells, t...)
	return Tuple(a.cells[off : off+n : off+n])
}
