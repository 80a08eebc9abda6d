package multiset

import (
	"unsafe"

	"repro/internal/value"
)

// arena amortizes the three allocations that linking a distinct tuple into a
// multiset otherwise costs — the entry struct, the key string, and the
// defensive copy of the tuple cells — by carving each from append-only
// chunks. A chunk region is written exactly once, when carved, and never
// again: later carves append strictly past it and a full chunk is replaced
// by a fresh one rather than grown (growing would relocate live carves). That
// write-once discipline is what makes the unsafe.String view over the key
// bytes sound, keeps tuple backings and key strings handed to searchers and
// traces from reuse, and lets a Clone share its source's carves.
//
// Chunks are geometric: the first of each kind is 1/128 of its maximum
// (entryChunk, keyChunk, cellChunk) and every replacement doubles up to it,
// so a multiset of a handful of elements carves a few hundred bytes and reaching
// the maximum costs less than one extra maximum chunk. bytes totals the chunk
// memory carved (Multiset.ArenaBytes).
//
// Chunk memory is reclaimed by the GC once every entry, key and tuple carved
// from it dies; a long-lived carve pins at most one chunk of each kind.
// All methods require the owning multiset's write lock.
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
// that cannot hold need (<= limit/4) more items: double, from limit/128, up
// to limit.
func nextChunk(c, need, limit int) int {
	c = min(max(2*c, limit/128), limit)
	for c < need {
		c *= 2
	}
	return c
}

// newEntry carves a zeroed entry, switching to a fresh chunk when full.
func (a *arena) newEntry() *entry {
	if len(a.entries) == cap(a.entries) {
		a.entries = make([]entry, 0, nextChunk(cap(a.entries), 1, entryChunk))
		a.bytes += int64(cap(a.entries)) * int64(unsafe.Sizeof(entry{}))
	}
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
	if cap(a.keys)-len(a.keys) < n {
		a.keys = make([]byte, 0, nextChunk(cap(a.keys), n, keyChunk))
		a.bytes += int64(cap(a.keys))
	}
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
	if cap(a.cells)-len(a.cells) < n {
		a.cells = make([]value.Value, 0, nextChunk(cap(a.cells), n, cellChunk))
		a.bytes += int64(cap(a.cells)) * int64(unsafe.Sizeof(value.Value{}))
	}
	off := len(a.cells)
	a.cells = append(a.cells, t...)
	return Tuple(a.cells[off : off+n : off+n])
}
