package multiset

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/symtab"
	"repro/internal/value"
)

// shardCount is the number of independently locked shards. A fixed power of
// two keeps shard selection a cheap mask; 32 comfortably exceeds the worker
// counts exercised by the benchmarks.
const shardCount = 32

// NoLabelSym is the delta marker ApplyDelta reports for produced tuples that
// carry no string label field. It cannot collide unsoundly with a real label
// extracted by Tuple.Label: a real "\x00" label interns to the same symbol
// and reports itself, which still wakes a superset of the reactions that
// could match — see gamma's subscription index.
var NoLabelSym = symtab.Intern("\x00")

// entry is one distinct tuple with its multiplicity. key caches Tuple.Key()
// (the ordering used by every sorted index), and sym/tag cache the label symbol
// and index tag so unlinking never re-derives them from the tuple. owner and
// gen are what make a Ref checkable: owner is the id of the Multiset the entry
// is linked in (0 on a freelist), and gen is bumped every time the struct is
// unlinked. Both fit the padding: the struct is a hot allocation.
type entry struct {
	tuple  Tuple
	key    string
	count  int
	tag    int64
	sym    symtab.Sym // label symbol; symtab.None for unlabeled tuples
	gen    uint32
	owner  uint32
	hasTag bool
}

// Ref is an element handle: what a View hands the matcher, and what a Delta
// carries back to the commit, in place of the key string. It is valid under
// the View that issued it, and afterwards only in a commit on the same
// Multiset, which claims it under the shard write lock: a Ref whose entry was
// consumed since (even if the struct was re-issued for another tuple — gen
// moved) or is another Multiset's (owner differs) fails its claim, never aliases.
type Ref struct {
	e     *entry
	gen   uint32
	shard uint32
}

// Tuple, Count and Key read the element; call them only under the issuing View.
func (r Ref) Tuple() Tuple { return r.e.tuple }
func (r Ref) Count() int   { return r.e.count }
func (r Ref) Key() string  { return r.e.key }

// shard is an independently locked slice of the multiset. All tuples with the
// same label land in the same shard, so a label-constrained pattern match
// takes exactly one shard lock.
//
// Entries are found three ways: byKey (produce, and the key-addressed front
// door), sorted (every entry, ascending key: whole-multiset enumeration) and
// labels (per label symbol, its entries and their (label, tag) buckets — see
// labelIndex in elist.go). Enumeration is an in-order walk of a maintained
// list, never a per-probe sort or a map iteration. link and unlink are the
// only code that touches the indexes.
type shard struct {
	mu     sync.RWMutex
	byKey  map[string]*entry
	sorted elist
	labels map[symtab.Sym]*labelIndex
	// free recycles entry structs across unlink/link cycles (bounded by
	// freeMax), zeroed except gen. Only the struct is recycled: tuple backings
	// and key strings escape to searchers and traces.
	free []*entry
	// arena chunk-allocates entries, key strings and tuple-cell copies for
	// freelist misses (see arena.go) — the commit path's hot allocations.
	arena shardArena
	// freeLists recycles spilled bucket lists that drained to empty, parked
	// backings included (elist.go; bounded by listFreeMax).
	freeLists     []*elist
	listsRecycled int64 // getList calls served from freeLists
	listsFresh    int64 // getList calls that allocated
}

// freeMax bounds the per-shard entry freelist, listFreeMax the list one.
const (
	freeMax     = 1024
	listFreeMax = 64
)

// getEntry returns a recycled or fresh entry struct.
func (s *shard) getEntry() *entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return s.arena.newEntry()
}

// getList returns a recycled or fresh empty index list.
func (s *shard) getList() *elist {
	if n := len(s.freeLists); n > 0 {
		l := s.freeLists[n-1]
		s.freeLists[n-1] = nil
		s.freeLists = s.freeLists[:n-1]
		s.listsRecycled++
		return l
	}
	s.listsFresh++
	return new(elist)
}

// putList recycles a bucket list that drained to empty and left its map.
func (s *shard) putList(l *elist) {
	if len(s.freeLists) < listFreeMax {
		s.freeLists = append(s.freeLists, l)
	}
}

// Multiset is the Gamma model's single database: a counted multiset of
// tuples safe for concurrent use. The zero value is not usable; call New.
type Multiset struct {
	id     uint32 // process-unique, never 0: what binds a Ref to its Multiset
	shards [shardCount]shard
	size   atomic.Int64 // total element count incl. multiplicity
	// commitSeq numbers committed writes (ApplyDeltaSeq/ApplyDeltasSeq). A
	// sequence number taken while the writer still holds the locks of every
	// shard it touched is a valid linearization of the execution: a firing
	// that consumes another firing's product must take that product's shard
	// lock after the producer released it, so the producer's number is always
	// the smaller one. Replay recorders sort on it to turn a nondeterministic
	// parallel run into a sequential schedule.
	commitSeq atomic.Uint64
}

// New returns an empty multiset, optionally pre-populated with tuples.
func New(tuples ...Tuple) *Multiset {
	m := &Multiset{id: lastID.Add(1)}
	for _, t := range tuples {
		m.Add(t)
	}
	return m
}

// labelSymOf interns the tuple's label, or returns symtab.None when t has no
// string label field.
func labelSymOf(t Tuple) symtab.Sym {
	if label, ok := t.Label(); ok {
		return symtab.Intern(label)
	}
	return symtab.None
}

// shardIndex picks the shard for a tuple: labeled tuples route by label
// symbol (so label queries are single-shard, and the route is a mask instead
// of a byte hash), unlabeled ones by the full key — held as a string or as
// bytes, which hash identically.
func shardIndex[K string | []byte](sym symtab.Sym, key K) uint32 {
	if sym != symtab.None {
		return uint32(sym) & (shardCount - 1)
	}
	h := uint32(2166136261) // 32-bit FNV-1a, inlined so nothing allocates a hasher
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (shardCount - 1)
}

// Add inserts one occurrence of t.
func (m *Multiset) Add(t Tuple) { m.AddN(t, 1) }

// AddN inserts n occurrences of t. n must be positive.
func (m *Multiset) AddN(t Tuple, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("multiset: AddN(%s, %d): n must be positive", t, n))
	}
	key := t.Key()
	sym := labelSymOf(t)
	s := &m.shards[shardIndex(sym, key)]
	s.mu.Lock()
	if e, ok := s.byKey[key]; ok {
		e.count += n
	} else {
		s.link(m.id, t, key, sym, n)
	}
	m.size.Add(int64(n))
	s.mu.Unlock()
}

// IndexTag reports the (label, tag) bucket a tag-field value files under: an
// integer, or a float equal to one — value.Equal, which decides a match,
// promotes, so a search for tag 2 must find [5, 'B', 2.0] — inside ±2⁵³, where
// that promotion is exact; other tags are found through the label alone.
func IndexTag(v value.Value) (int64, bool) {
	var t int64
	switch v.Kind() {
	case value.KindInt:
		t = v.AsInt()
	case value.KindFloat:
		if t = int64(v.AsFloat()); float64(t) != v.AsFloat() {
			return 0, false
		}
	default:
		return 0, false
	}
	return t, -1<<53 < t && t < 1<<53
}

// link inserts a new distinct tuple into every index of an already locked
// shard of Multiset owner. The caller has established that key is absent from
// byKey. A shard's maps are made on its first insert: nil maps read as empty.
func (s *shard) link(owner uint32, t Tuple, key string, sym symtab.Sym, n int) {
	if s.byKey == nil {
		s.byKey = make(map[string]*entry)
		s.labels = make(map[symtab.Sym]*labelIndex)
	}
	e := s.getEntry()
	e.tuple, e.key, e.count, e.sym, e.owner = s.arena.cloneTuple(t), key, n, sym, owner
	s.byKey[key] = e
	s.sorted.insert(e)
	if sym == symtab.None {
		return
	}
	li := s.labels[sym]
	if li == nil {
		li = new(labelIndex)
		s.labels[sym] = li
	}
	li.all.insert(e)
	if len(t) >= 3 {
		if e.tag, e.hasTag = IndexTag(t[2]); e.hasTag {
			li.addTagged(s, e)
		}
	}
}

// unlink removes e from every index of its locked shard and retires the
// struct: gen moves, so outstanding Refs fail their claim, and the rest is
// zeroed (dropping the tuple and key) before it joins the freelist.
func (s *shard) unlink(e *entry) {
	delete(s.byKey, e.key)
	s.sorted.remove(e.key)
	if e.sym != symtab.None {
		li := s.labels[e.sym]
		li.all.remove(e.key)
		if e.hasTag {
			li.removeTagged(s, e)
		}
	}
	*e = entry{gen: e.gen + 1}
	if len(s.free) < freeMax {
		s.free = append(s.free, e)
	}
}

// AddAll inserts one occurrence of every tuple in ts: the insert half of the
// two-phase TryRemoveAll/AddAll commit that replay and the differential tests
// use as the reference for ApplyDelta.
func (m *Multiset) AddAll(ts []Tuple) {
	for _, t := range ts {
		m.Add(t)
	}
}

// Remove deletes one occurrence of t, reporting whether one existed.
func (m *Multiset) Remove(t Tuple) bool { return m.TryRemoveAll([]Tuple{t}) }

// deltaScratch holds the per-commit scratch of applyDeltas so the hot commit
// path performs no bookkeeping allocations: keys and shard routes of the
// key-addressed consumes, the entries the delta being applied resolved to,
// routes and label symbols of the produce side, the byte buffer produce
// fingerprints are built into (a key string is materialized only when a
// genuinely new entry is inserted), and the per-firing annihilation marks.
type deltaScratch struct {
	ckeys   []string
	cshards []uint32
	cents   []*entry
	pshards []uint32
	psyms   []symtab.Sym
	kbuf    []byte // produce fingerprints, back to back
	koff    []int  // start offset of each produce fingerprint in kbuf
	ccan    []bool // annihilation marks of the firing being applied
	pcan    []bool
}

var deltaPool = sync.Pool{New: func() any { return new(deltaScratch) }}

// lastID numbers the Multisets of the process (Multiset.id).
var lastID atomic.Uint32

func (d *deltaScratch) reset() {
	d.ckeys, d.cshards = d.ckeys[:0], d.cshards[:0]
	d.pshards, d.psyms = d.pshards[:0], d.psyms[:0]
	d.kbuf, d.koff = d.kbuf[:0], d.koff[:0]
}

// stage routes one delta before any lock is taken, collecting the shards it
// touches in mask. A handle names its shard; a key-addressed consume is routed
// like an insert; a product gets its fingerprint rendered into kbuf and its
// label symbol from PSyms where the caller resolved it, else from the tuple.
func (d *deltaScratch) stage(dl *Delta, mask *uint32) {
	for _, r := range dl.Refs {
		*mask |= 1 << (r.shard & (shardCount - 1))
	}
	if dl.Refs == nil {
		for i, t := range dl.Consume {
			var key string
			if dl.CKeys != nil {
				key = dl.CKeys[i]
			} else {
				key = t.Key()
			}
			si := shardIndex(labelSymOf(t), key)
			d.ckeys = append(d.ckeys, key)
			d.cshards = append(d.cshards, si)
			*mask |= 1 << si
		}
	}
	for i, t := range dl.Produce {
		sym := symtab.None
		if dl.PSyms != nil {
			sym = dl.PSyms[i]
		}
		if sym == symtab.None {
			sym = labelSymOf(t)
		}
		off := len(d.kbuf)
		d.koff = append(d.koff, off)
		d.kbuf = t.AppendKey(d.kbuf)
		si := shardIndex(sym, d.kbuf[off:])
		d.pshards = append(d.pshards, si)
		d.psyms = append(d.psyms, sym)
		*mask |= 1 << si
	}
}

// pkey returns the i-th staged produce fingerprint.
func (d *deltaScratch) pkey(i int) []byte {
	end := len(d.kbuf)
	if i+1 < len(d.koff) {
		end = d.koff[i+1]
	}
	return d.kbuf[d.koff[i]:end]
}

// appendSymsDedup appends the label symbols in add to syms, deduplicated,
// with NoLabelSym standing in for unlabeled tuples.
func appendSymsDedup(syms []symtab.Sym, add []symtab.Sym) []symtab.Sym {
	for _, sym := range add {
		if sym == symtab.None {
			sym = NoLabelSym
		}
		if !slices.Contains(syms, sym) {
			syms = append(syms, sym)
		}
	}
	return syms
}

// eachShard applies op — one of RWMutex's lock methods — to every shard whose
// bit is set in mask, in index order (the deadlock-avoidance order shared by
// all multi-shard operations).
func (m *Multiset) eachShard(mask uint32, op func(*sync.RWMutex)) {
	for b := mask; b != 0; b &= b - 1 {
		op(&m.shards[bits.TrailingZeros32(b)].mu)
	}
}

// claimLocked resolves one firing's consume side to entries (d.cents) and
// verifies that it is fully available; shards are locked, nothing is
// modified. A handle resolves to its entry if that is still the element it
// was issued for, in this multiset; a key (the staged ones from kc on) through
// byKey. Duplicates within the firing require that many occurrences.
func (m *Multiset) claimLocked(dl *Delta, d *deltaScratch, kc int) bool {
	d.cents = d.cents[:0]
	for _, r := range dl.Refs {
		if r.e == nil || r.e.owner != m.id || r.e.gen != r.gen {
			return false
		}
		d.cents = append(d.cents, r.e)
	}
	if dl.Refs == nil {
		for i := range dl.Consume {
			d.cents = append(d.cents, m.shards[d.cshards[kc+i]].byKey[d.ckeys[kc+i]])
		}
	}
	for i, e := range d.cents {
		need := 1
		for _, prev := range d.cents[:i] {
			if prev == e {
				need++
			}
		}
		if e == nil || e.count < need {
			return false
		}
	}
	return true
}

// applyRangeLocked commits one firing whose claim just passed — the one place
// entries are unlinked and linked by a commit: the claimed entries (d.cents)
// lose one occurrence each and the produce tuples (staged from ps on) are
// inserted. A consume/produce pair with identical fingerprints annihilates —
// its net effect on every count is zero, so neither side touches the indexes
// or materializes a key string. The claim was checked gross, so observable
// semantics stay exactly remove-then-insert.
func (m *Multiset) applyRangeLocked(produce []Tuple, d *deltaScratch, ps int) {
	d.ccan, d.pcan = d.ccan[:0], d.pcan[:0]
	for range d.cents {
		d.ccan = append(d.ccan, false)
	}
	for pi := range produce {
		kb, can := d.pkey(ps+pi), false
		for cj, e := range d.cents {
			if !d.ccan[cj] && string(kb) == e.key { // compared in place, not converted
				d.ccan[cj], can = true, true
				break
			}
		}
		d.pcan = append(d.pcan, can)
	}
	for cj, e := range d.cents {
		if d.ccan[cj] {
			continue
		}
		if e.count--; e.count == 0 {
			m.shards[shardIndex(e.sym, e.key)].unlink(e)
		}
	}
	for pi, t := range produce {
		if d.pcan[pi] {
			continue
		}
		s := &m.shards[d.pshards[ps+pi]]
		kb := d.pkey(ps + pi)
		if e, ok := s.byKey[string(kb)]; ok {
			e.count++
		} else {
			// internKey: the byte fingerprint becomes a chunk-backed string,
			// so the common miss path (every insert of a fresh tuple) does
			// not pay a per-key allocation.
			s.link(m.id, t, s.arena.internKey(kb), d.psyms[ps+pi], 1)
		}
	}
}

// TryRemoveAll atomically removes one occurrence of every tuple in ts — all
// or nothing. Duplicate tuples in ts require that many occurrences. This is
// the claim half of the two-phase TryRemoveAll/AddAll commit (see AddAll): a
// produce-less ApplyDelta.
func (m *Multiset) TryRemoveAll(ts []Tuple) bool {
	ok, _ := m.ApplyDelta(ts, nil, nil, nil)
	return ok
}

// ApplyDelta is one reaction firing's consume+produce as a single batched
// commit: it atomically removes one occurrence of every tuple in consume
// (all-or-nothing, duplicates requiring that many occurrences) and, on
// success, inserts every tuple in produce — grouped by shard and applied
// under one lock acquisition per involved shard. It is the key-addressed
// front door of the commit (replay, tests and tools that hold tuples, not
// handles): keys are resolved to entries under the lock and the same core
// runs as for the matcher's handle-addressed deltas (Delta.Refs).
//
// ckeys, when non-nil, must hold Key() of each consume tuple, so the commit
// does not rebuild them. A nil ckeys computes the keys here.
//
// On success it appends the deduplicated label symbols of the produced tuples
// to syms (NoLabelSym standing in for unlabeled tuples) and returns the
// extended slice — the delta that drives the incremental reaction scheduler.
// On a failed claim nothing is modified and syms is returned unchanged.
func (m *Multiset) ApplyDelta(consume []Tuple, ckeys []string, produce []Tuple, syms []symtab.Sym) (bool, []symtab.Sym) {
	ok, _, syms := m.applyDelta(consume, ckeys, produce, syms, false)
	return ok, syms
}

// ApplyDeltaSeq is ApplyDelta that additionally returns the firing's commit
// sequence number, drawn while the shard locks are still held — the property
// that makes the numbers a valid linearization (see commitSeq).
func (m *Multiset) ApplyDeltaSeq(consume []Tuple, ckeys []string, produce []Tuple, syms []symtab.Sym) (bool, uint64, []symtab.Sym) {
	return m.applyDelta(consume, ckeys, produce, syms, true)
}

// applyDelta is the one-firing case of the batched commit (batch.go): one
// commit path for every writer.
func (m *Multiset) applyDelta(consume []Tuple, ckeys []string, produce []Tuple, syms []symtab.Sym, wantSeq bool) (bool, uint64, []symtab.Sym) {
	ds := [1]Delta{{Consume: consume, CKeys: ckeys, Produce: produce}}
	var seq [1]uint64
	var seqs []uint64
	if wantSeq {
		seqs = seq[:]
	}
	n, syms := m.applyDeltas(ds[:], nil, seqs, syms)
	return n == 1, seq[0], syms
}

// Count returns the multiplicity of t.
func (m *Multiset) Count(t Tuple) int {
	key := t.Key()
	s := &m.shards[shardIndex(labelSymOf(t), key)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.byKey[key]; ok {
		return e.count
	}
	return 0
}

// Contains reports whether at least one occurrence of t is present.
func (m *Multiset) Contains(t Tuple) bool { return m.Count(t) > 0 }

// Len returns the total number of elements, counting multiplicity.
func (m *Multiset) Len() int { return int(m.size.Load()) }

// Distinct returns the number of distinct tuples.
func (m *Multiset) Distinct() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += s.sorted.len()
		s.mu.RUnlock()
	}
	return n
}

// BySym returns the distinct tuples whose label symbol equals sym, with
// their multiplicities and cached keys, in ascending key order. The slice is
// a snapshot.
func (m *Multiset) BySym(sym symtab.Sym) (out []Counted) {
	m.IterSym(sym, collect(&out))
	return out
}

// collect returns an Iter callback that appends what it is given to out.
func collect(out *[]Counted) func(t Tuple, n int, key string) bool {
	return func(t Tuple, n int, key string) bool {
		*out = append(*out, Counted{Tuple: t, N: n, Key: key})
		return true
	}
}

// BySymTag returns the distinct tuples matching both label symbol and tag,
// with multiplicities and cached keys, in ascending key order — the
// dynamic-dataflow operand lookup. The slice is a snapshot.
func (m *Multiset) BySymTag(sym symtab.Sym, tag int64) (out []Counted) {
	m.IterSymTag(sym, tag, collect(&out))
	return out
}

// ByLabel is BySym by label string; a label that was never interned has no
// entries anywhere, so the miss answers without touching the symbol table.
func (m *Multiset) ByLabel(label string) []Counted {
	sym, ok := symtab.SymOf(label)
	if !ok {
		return nil
	}
	return m.BySym(sym)
}

// ByLabelTag is BySymTag by label string.
func (m *Multiset) ByLabelTag(label string, tag int64) []Counted {
	sym, ok := symtab.SymOf(label)
	if !ok {
		return nil
	}
	return m.BySymTag(sym, tag)
}

// IterSym calls fn once per distinct tuple whose label symbol equals sym, in
// ascending key order, passing the entry's cached key fingerprint, without
// copying the index. It is a one-shot View (see LockView): the shard read
// lock is held for the whole iteration, so fn must not mutate the multiset. A
// caller enumerating more than once per consistent state — the reaction
// matcher — holds one View across all of it instead.
func (m *Multiset) IterSym(sym symtab.Sym, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockView(&v, []symtab.Sym{sym}, false)
	defer v.Unlock()
	v.EachSym(sym, 0, unref(fn))
}

// IterSymTag is IterSym over the (label symbol, tag) index.
func (m *Multiset) IterSymTag(sym symtab.Sym, tag int64, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockView(&v, []symtab.Sym{sym}, false)
	defer v.Unlock()
	v.EachSymTag(sym, tag, 0, unref(fn))
}

// unref adapts a tuple callback to the View's handle callback.
func unref(fn func(t Tuple, n int, key string) bool) func(Ref) bool {
	return func(r Ref) bool { return fn(r.e.tuple, r.e.count, r.e.key) }
}

// IterLabel is IterSym by label string, without the key (compatibility
// surface; the matcher iterates by symbol).
func (m *Multiset) IterLabel(label string, fn func(t Tuple, n int) bool) {
	sym, ok := symtab.SymOf(label)
	if !ok {
		return
	}
	m.IterSym(sym, func(t Tuple, n int, _ string) bool { return fn(t, n) })
}

// IterLabelTag is IterLabel over the (label, tag) index.
func (m *Multiset) IterLabelTag(label string, tag int64, fn func(t Tuple, n int) bool) {
	sym, ok := symtab.SymOf(label)
	if !ok {
		return
	}
	m.IterSymTag(sym, tag, func(t Tuple, n int, _ string) bool { return fn(t, n) })
}

// IterAll calls fn once per distinct tuple in ascending key order across the
// whole multiset with the entry's cached key, lazily merging the shards'
// sorted runs — no copy, no sort, and early exit costs only the elements
// actually visited. All shard read locks are held for the whole iteration:
// fn must not mutate the multiset.
func (m *Multiset) IterAll(fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockView(&v, nil, true)
	defer v.Unlock()
	var cursors [shardCount]ecursor
	for i := range m.shards {
		cursors[i].l = &m.shards[i].sorted
	}
	for {
		best := -1
		var bestKey string
		for i := range cursors {
			e := cursors[i].peek()
			if e == nil {
				continue
			}
			if best < 0 || e.key < bestKey {
				best, bestKey = i, e.key
			}
		}
		if best < 0 {
			return
		}
		e := cursors[best].peek()
		cursors[best].advance()
		if !fn(e.tuple, e.count, e.key) {
			return
		}
	}
}

// IterAllRot calls fn once per distinct tuple exactly like IterAll, but
// enumeration starts at a position derived from rot — shard order and the
// position within each shard both rotate — instead of the global ascending
// key order. The walk is still exhaustive and, for a fixed rot and multiset
// state, still deterministic; only the starting point moves (why the matcher
// wants that: gamma's eachCandidate). A one-shot View over every shard, with
// IterSym's locking contract.
func (m *Multiset) IterAllRot(rot uint64, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockView(&v, nil, true)
	defer v.Unlock()
	v.EachAll(rot, unref(fn))
}

// IterSorted is IterAll without the key (compatibility surface).
func (m *Multiset) IterSorted(fn func(t Tuple, n int) bool) {
	m.IterAll(func(t Tuple, n int, _ string) bool { return fn(t, n) })
}

// Counted pairs a distinct tuple with its multiplicity and, when it comes
// from a maintained index, the cached Tuple.Key fingerprint.
type Counted struct {
	Tuple Tuple
	N     int
	Key   string
}

// ForEach calls fn once per distinct tuple with its multiplicity, stopping
// early if fn returns false. Iteration takes shard read locks one at a time;
// concurrent mutation of other shards may or may not be observed.
func (m *Multiset) ForEach(fn func(t Tuple, n int) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		done := !s.sorted.each(func(e *entry) bool { return fn(e.tuple, e.count) })
		s.mu.RUnlock()
		if done {
			return
		}
	}
}

// Snapshot returns every distinct tuple with multiplicity, sorted
// deterministically. Intended for tests, printing and external callers; the
// matcher itself walks the maintained indexes through a View.
func (m *Multiset) Snapshot() []Counted {
	var out []Counted
	m.ForEach(func(t Tuple, n int) bool {
		out = append(out, Counted{Tuple: t, N: n})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// Expand returns every element including multiplicity as a flat sorted slice.
func (m *Multiset) Expand() []Tuple {
	snap := m.Snapshot()
	var out []Tuple
	for _, c := range snap {
		for i := 0; i < c.N; i++ {
			out = append(out, c.Tuple)
		}
	}
	return out
}

// Clone returns an independent deep copy, built shard by shard from what the
// entries cache — the key (shared: strings are immutable) and the label
// symbol, which also fix the shard — so nothing is re-rendered, re-interned or
// re-routed. Each source shard is read-locked in turn, like ForEach.
func (m *Multiset) Clone() *Multiset {
	c := New()
	var size int64
	for i := range m.shards {
		s, d := &m.shards[i], &c.shards[i] // c is not shared yet: d needs no lock
		s.mu.RLock()
		if n := s.sorted.len(); n > 0 {
			d.byKey = make(map[string]*entry, n)
			d.labels = make(map[symtab.Sym]*labelIndex, len(s.labels))
		}
		s.sorted.each(func(e *entry) bool {
			d.link(c.id, e.tuple, e.key, e.sym, e.count)
			size += int64(e.count)
			return true
		})
		s.mu.RUnlock()
	}
	c.size.Store(size)
	return c
}

// Storage counts the storage layer's work so far: arena chunk bytes carved,
// and index lists handed out recycled vs freshly allocated. It moves only on
// a chunk refill or a list get, never per element.
type Storage struct {
	ArenaBytes    int64
	ListsRecycled int64
	ListsFresh    int64
}

// Storage sums the per-shard storage counters.
func (m *Multiset) Storage() Storage {
	var st Storage
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		st.ArenaBytes += s.arena.bytes
		st.ListsRecycled += s.listsRecycled
		st.ListsFresh += s.listsFresh
		s.mu.RUnlock()
	}
	return st
}

// Equal reports whether two multisets hold exactly the same elements with the
// same multiplicities.
func (m *Multiset) Equal(o *Multiset) bool {
	if m.Len() != o.Len() || m.Distinct() != o.Distinct() {
		return false
	}
	equal := true
	m.ForEach(func(t Tuple, n int) bool {
		if o.Count(t) != n {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// String renders the multiset in the paper's style, sorted for determinism:
// {[1, 'A1', 0], [5, 'B1', 0]}. Multiplicities repeat the element.
func (m *Multiset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, c := range m.Snapshot() {
		for i := 0; i < c.N; i++ {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(c.Tuple.String())
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Parse reads a multiset from its braced source form, e.g.
// "{[1, 'A1', 0], [5, 'B1', 0]}".
func Parse(src string) (*Multiset, error) {
	s := strings.TrimSpace(src)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("multiset: %q must be braced", src)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	m := New()
	if inner == "" {
		return m, nil
	}
	// Split on commas outside brackets and, like splitTopLevel, outside quotes.
	depth := 0
	quote := byte(0)
	start := 0
	flush := func(end int) error {
		field := strings.TrimSpace(inner[start:end])
		if field == "" {
			return fmt.Errorf("multiset: empty element in %q", src)
		}
		t, err := ParseTuple(field)
		if err != nil {
			return err
		}
		m.Add(t)
		return nil
	}
	for i := 0; i < len(inner); i++ {
		switch c := inner[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[':
			depth++
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			if err := flush(i); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if err := flush(len(inner)); err != nil {
		return nil, err
	}
	return m, nil
}
