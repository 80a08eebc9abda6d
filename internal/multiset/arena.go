package multiset

import (
	"unsafe"

	"repro/internal/value"
)

// arena amortizes the three allocations that linking a distinct tuple into a
// multiset otherwise costs — the entry struct, the key string and the copy of
// the tuple cells — by carving each from append-only chunks. A carve is
// written once and never again: later carves append past it, and a full
// chunk is replaced, not grown (growing would move live carves). That is what
// makes the unsafe.String key views sound, keeps tuples and keys handed to
// searchers and traces from reuse, and lets a Clone share its source's carves.
//
// Chunks are geometric: the first of each kind is 1/128 of its maximum
// (entryChunk, keyChunk, cellChunk), each replacement doubles up to it, and a
// bulk build's run (reserve) takes one chunk, exactly its size past the
// maximum. bytes totals the chunk memory carved (Multiset.ArenaBytes). A
// long-lived carve pins its chunk; all methods need the write lock.
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
// exactly need past the limit, a bulk build's run (reserve).
func nextChunk(c, need, limit int) int {
	if need > limit {
		return need
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
// would — else one of exactly the run.
func (a *arena) reserve(n, k, c int) {
	a.entries = fit(a.entries, n, entryChunk, &a.bytes)
	a.keys = fit(a.keys, k, keyChunk, &a.bytes)
	a.cells = fit(a.cells, c, cellChunk, &a.bytes)
}

// newEntry carves a zeroed entry, switching to a fresh chunk when full.
func (a *arena) newEntry() *entry {
	a.entries = fit(a.entries, 1, entryChunk, &a.bytes)
	a.entries = a.entries[:len(a.entries)+1]
	return &a.entries[len(a.entries)-1]
}

// internKey copies the fingerprint bytes into the key chunk and returns a
// string viewing them. Oversized keys get their own allocation so one huge
// key cannot waste most of a chunk.
func (a *arena) internKey(kb []byte) string {
	n := len(kb)
	if n == 0 {
		return ""
	}
	if n > keyChunk/4 {
		return string(kb)
	}
	a.keys = fit(a.keys, n, keyChunk, &a.bytes)
	off := len(a.keys)
	a.keys = append(a.keys, kb...)
	return unsafe.String(&a.keys[off], n)
}

// cloneTuple copies t's cells into the cell chunk and returns a capacity-
// clamped tuple over them, equivalent to t.Clone() without the per-tuple
// allocation.
func (a *arena) cloneTuple(t Tuple) Tuple {
	n := len(t)
	if n == 0 {
		return nil
	}
	if n > cellChunk/4 {
		return t.Clone()
	}
	a.cells = fit(a.cells, n, cellChunk, &a.bytes)
	off := len(a.cells)
	a.cells = append(a.cells, t...)
	return Tuple(a.cells[off : off+n : off+n])
}
