package multiset

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/symtab"
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
// (the ordering used by every sorted index, and the fingerprint handed to the
// matcher so a probe never rebuilds it), and sym/tag cache the label symbol
// and iteration tag so removal maintains the indexes without re-deriving
// them from the tuple.
type entry struct {
	tuple  Tuple
	key    string
	count  int
	sym    symtab.Sym // label symbol; symtab.None for unlabeled tuples
	tag    int64
	hasTag bool
}

// shard is an independently locked slice of the multiset. All tuples with the
// same label land in the same shard, so a label-constrained pattern match
// takes exactly one shard lock.
//
// Every index is a chunked list of entries kept incrementally sorted by key
// (see elist.go): candidate enumeration for the reaction matcher is a plain
// in-order walk — no per-probe sort.Slice, no map-iteration order to launder —
// and insertion/removal memmoves are bounded by the chunk size instead of the
// index population.
type shard struct {
	mu sync.RWMutex
	// byKey maps Tuple.Key() to its entry.
	byKey map[string]*entry
	// sorted holds every entry of the shard in ascending key order.
	sorted elist
	// bySym maps an element label symbol to its entries, ascending key order.
	bySym map[symtab.Sym]*elist
	// bySymTag maps (label symbol, tag) to its entries, ascending key order;
	// this is the dynamic-dataflow tag-matching index.
	bySymTag map[symTag]*elist
	// free recycles entry structs across remove/add cycles (bounded by
	// freeMax). Only the struct is recycled: tuple backings and key strings
	// escape to searchers, memo keys and traces, so they are never reused.
	free []*entry
	// arena chunk-allocates entries, key strings and tuple-cell copies for
	// freelist misses (see arena.go) — the commit path's hot allocations.
	arena shardArena
	// freeLists recycles bySym/bySymTag lists that drained to empty and left
	// their map, parked backings included (elist.go; bounded by listFreeMax).
	freeLists     []*elist
	listsRecycled int64 // getList calls served from freeLists
	listsFresh    int64 // getList calls that allocated
}

type symTag struct {
	sym symtab.Sym
	tag int64
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

// putEntry recycles e after it was unlinked from every index, dropping its
// references so the tuple and key can be collected once external readers
// (searchers holding the consumed tuples) let go.
func (s *shard) putEntry(e *entry) {
	if len(s.free) >= freeMax {
		return
	}
	*e = entry{}
	s.free = append(s.free, e)
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

// putList recycles an index list that drained to empty and left its map.
func (s *shard) putList(l *elist) {
	if len(s.freeLists) < listFreeMax {
		s.freeLists = append(s.freeLists, l)
	}
}

// Multiset is the Gamma model's single database: a counted multiset of
// tuples safe for concurrent use. The zero value is not usable; call New.
type Multiset struct {
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
	m := &Multiset{}
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
// of a byte hash), unlabeled ones by the full key.
func shardIndex(sym symtab.Sym, key string) uint32 {
	if sym != symtab.None {
		return uint32(sym) & (shardCount - 1)
	}
	return hashString(key) & (shardCount - 1)
}

// shardIndexBytes is shardIndex for a fingerprint held as bytes; the two hash
// identically so a key routes to the same shard in either form.
func shardIndexBytes(sym symtab.Sym, key []byte) uint32 {
	if sym != symtab.None {
		return uint32(sym) & (shardCount - 1)
	}
	return hashBytes(key) & (shardCount - 1)
}

func (m *Multiset) shardForSym(sym symtab.Sym) *shard {
	return &m.shards[uint32(sym)&(shardCount-1)]
}

// hashString is 32-bit FNV-1a, inlined so neither form allocates a hasher.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func hashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
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
	s.addLocked(t, key, sym, n)
	s.mu.Unlock()
	m.size.Add(int64(n))
}

// addLocked inserts n occurrences into an already locked shard.
func (s *shard) addLocked(t Tuple, key string, sym symtab.Sym, n int) {
	if e, ok := s.byKey[key]; ok {
		e.count += n
		return
	}
	s.addEntryLocked(t, key, sym, n)
}

// addEntryLocked links a new distinct tuple into every index of an already
// locked shard. The caller has established that key is absent from byKey.
// A shard's maps are made on its first insert: nil maps read as empty.
func (s *shard) addEntryLocked(t Tuple, key string, sym symtab.Sym, n int) {
	if s.byKey == nil {
		s.byKey = make(map[string]*entry)
		s.bySym = make(map[symtab.Sym]*elist)
		s.bySymTag = make(map[symTag]*elist)
	}
	e := s.getEntry()
	e.tuple, e.key, e.count, e.sym = s.arena.cloneTuple(t), key, n, sym
	if tag, ok := t.Tag(); ok && sym != symtab.None {
		e.tag, e.hasTag = tag, true
	}
	s.byKey[key] = e
	s.sorted.insert(e)
	if sym != symtab.None {
		l := s.bySym[sym]
		if l == nil {
			l = s.getList()
			s.bySym[sym] = l
		}
		l.insert(e)
		if e.hasTag {
			st := symTag{sym, e.tag}
			lt := s.bySymTag[st]
			if lt == nil {
				lt = s.getList()
				s.bySymTag[st] = lt
			}
			lt.insert(e)
		}
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

// removeLocked decrements e inside an already locked shard, unlinking it from
// every index and recycling the struct when the count reaches zero.
func (s *shard) removeLocked(e *entry) {
	e.count--
	if e.count > 0 {
		return
	}
	delete(s.byKey, e.key)
	s.sorted.remove(e.key)
	if e.sym != symtab.None {
		if l := s.bySym[e.sym]; l != nil {
			l.remove(e.key)
			if l.len() == 0 {
				delete(s.bySym, e.sym)
				s.putList(l)
			}
		}
		if e.hasTag {
			st := symTag{e.sym, e.tag}
			if l := s.bySymTag[st]; l != nil {
				l.remove(e.key)
				if l.len() == 0 {
					delete(s.bySymTag, st)
					s.putList(l)
				}
			}
		}
	}
	s.putEntry(e)
}

// Remove deletes one occurrence of t, reporting whether one existed.
func (m *Multiset) Remove(t Tuple) bool {
	key := t.Key()
	s := &m.shards[shardIndex(labelSymOf(t), key)]
	s.mu.Lock()
	e, ok := s.byKey[key]
	if ok && e.count > 0 {
		s.removeLocked(e)
	} else {
		ok = false
	}
	s.mu.Unlock()
	if ok {
		m.size.Add(-1)
	}
	return ok
}

// deltaScratch holds the per-commit scratch of TryRemoveAll, ApplyDelta and
// ApplyDeltas so the hot commit path performs no bookkeeping allocations:
// staged keys, shard routes and label symbols for both sides of the delta,
// the byte buffer produce fingerprints are built into (a key string is
// materialized only when a genuinely new entry is inserted), and the
// per-firing annihilation marks.
type deltaScratch struct {
	ckeys   []string
	cshards []uint32
	pshards []uint32
	psyms   []symtab.Sym
	kbuf    []byte // produce fingerprints, back to back
	koff    []int  // start offset of each produce fingerprint in kbuf
	ccan    []bool // annihilation marks of the firing being applied
	pcan    []bool
}

var deltaPool = sync.Pool{New: func() any { return new(deltaScratch) }}

func (d *deltaScratch) reset() {
	d.ckeys, d.cshards = d.ckeys[:0], d.cshards[:0]
	d.pshards, d.psyms = d.pshards[:0], d.psyms[:0]
	d.kbuf, d.koff = d.kbuf[:0], d.koff[:0]
	d.ccan, d.pcan = d.ccan[:0], d.pcan[:0]
}

// stageConsume appends the consume side's keys and shard routes. ckeys, when
// non-nil, supplies each tuple's cached fingerprint; a nil ckeys computes
// them here.
func (d *deltaScratch) stageConsume(consume []Tuple, ckeys []string, involved *[shardCount]bool) {
	for i, t := range consume {
		var key string
		if ckeys != nil {
			key = ckeys[i]
		} else {
			key = t.Key()
		}
		si := shardIndex(labelSymOf(t), key)
		d.ckeys = append(d.ckeys, key)
		d.cshards = append(d.cshards, si)
		involved[si] = true
	}
}

// stageProduce appends the produce side's fingerprints (into kbuf), shard
// routes and label symbols.
func (d *deltaScratch) stageProduce(produce []Tuple, involved *[shardCount]bool) {
	for _, t := range produce {
		sym := labelSymOf(t)
		off := len(d.kbuf)
		d.koff = append(d.koff, off)
		d.kbuf = t.AppendKey(d.kbuf)
		si := shardIndexBytes(sym, d.kbuf[off:])
		d.pshards = append(d.pshards, si)
		d.psyms = append(d.psyms, sym)
		involved[si] = true
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

// eqBytesString reports b == s without converting either side.
func eqBytesString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// appendSymsDedup appends the label symbols in add to syms, deduplicated,
// with NoLabelSym standing in for unlabeled tuples.
func appendSymsDedup(syms []symtab.Sym, add []symtab.Sym) []symtab.Sym {
	for _, sym := range add {
		if sym == symtab.None {
			sym = NoLabelSym
		}
		seen := false
		for _, have := range syms {
			if have == sym {
				seen = true
				break
			}
		}
		if !seen {
			syms = append(syms, sym)
		}
	}
	return syms
}

// lockShards locks every shard whose bit is set in involved, in index order
// (the deadlock-avoidance order shared by all multi-shard operations).
func (m *Multiset) lockShards(involved *[shardCount]bool) {
	for i := range m.shards {
		if involved[i] {
			m.shards[i].mu.Lock()
		}
	}
}

func (m *Multiset) unlockShards(involved *[shardCount]bool) {
	for i := range m.shards {
		if involved[i] {
			m.shards[i].mu.Unlock()
		}
	}
}

// claimRangeLocked verifies that one firing's staged consume range [cs, ce)
// is fully available: duplicates within the range require that many
// occurrences. Shards must already be locked; nothing is modified.
func (m *Multiset) claimRangeLocked(cs, ce int, d *deltaScratch) bool {
	for i := cs; i < ce; i++ {
		key := d.ckeys[i]
		need := 1
		for j := cs; j < i; j++ {
			if d.ckeys[j] == key {
				need++
			}
		}
		e, ok := m.shards[d.cshards[i]].byKey[key]
		if !ok || e.count < need {
			return false
		}
	}
	return true
}

// applyRangeLocked commits one firing whose claim already passed: the staged
// consume range [cs, ce) is removed and the produce tuples (staged at
// [ps, pe)) inserted. A consume/produce pair with identical fingerprints
// annihilates — its net effect on every count is zero, so neither side
// touches the indexes or materializes a key string. The claim was checked
// gross, so observable semantics stay exactly remove-then-insert.
func (m *Multiset) applyRangeLocked(produce []Tuple, d *deltaScratch, cs, ce, ps, pe int) {
	d.ccan = d.ccan[:0]
	d.pcan = d.pcan[:0]
	for i := cs; i < ce; i++ {
		d.ccan = append(d.ccan, false)
	}
	for i := ps; i < pe; i++ {
		d.pcan = append(d.pcan, false)
	}
	for pi := ps; pi < pe; pi++ {
		kb := d.pkey(pi)
		for cj := cs; cj < ce; cj++ {
			if !d.ccan[cj-cs] && eqBytesString(kb, d.ckeys[cj]) {
				d.ccan[cj-cs] = true
				d.pcan[pi-ps] = true
				break
			}
		}
	}
	for cj := cs; cj < ce; cj++ {
		if d.ccan[cj-cs] {
			continue
		}
		s := &m.shards[d.cshards[cj]]
		s.removeLocked(s.byKey[d.ckeys[cj]])
	}
	for pi := ps; pi < pe; pi++ {
		if d.pcan[pi-ps] {
			continue
		}
		s := &m.shards[d.pshards[pi]]
		kb := d.pkey(pi)
		if e, ok := s.byKey[string(kb)]; ok {
			e.count++
		} else {
			// internKey: the byte fingerprint becomes a chunk-backed string,
			// so the common miss path (every insert of a fresh tuple) does
			// not pay a per-key allocation.
			s.addEntryLocked(produce[pi-ps], s.arena.internKey(kb), d.psyms[pi], 1)
		}
	}
}

// TryRemoveAll atomically removes one occurrence of every tuple in ts — all
// or nothing. Duplicate tuples in ts require that many occurrences. This is
// the claim half of the two-phase TryRemoveAll/AddAll commit (see AddAll): a
// caller that matched a reaction's replace-list claims exactly those
// molecules, and the claim fails if a concurrent writer consumed one first.
func (m *Multiset) TryRemoveAll(ts []Tuple) bool {
	if len(ts) == 0 {
		return true
	}
	d := deltaPool.Get().(*deltaScratch)
	defer deltaPool.Put(d)
	d.reset()
	var involved [shardCount]bool
	d.stageConsume(ts, nil, &involved)
	m.lockShards(&involved)
	ok := m.claimRangeLocked(0, len(ts), d)
	if ok {
		for i := range ts {
			s := &m.shards[d.cshards[i]]
			s.removeLocked(s.byKey[d.ckeys[i]])
		}
	}
	m.unlockShards(&involved)
	if ok {
		m.size.Add(-int64(len(ts)))
	}
	return ok
}

// ApplyDelta is one reaction firing's consume+produce as a single batched
// commit: it atomically removes one occurrence of every tuple in consume
// (all-or-nothing, duplicates requiring that many occurrences) and, on
// success, inserts every tuple in produce — grouped by shard and applied
// under one lock acquisition per involved shard, instead of the seed
// engine's separate TryRemoveAll and AddAll passes.
//
// ckeys, when non-nil, must hold Key() of each consume tuple; the matcher
// passes the fingerprints cached on the entries it enumerated, so the commit
// never rebuilds them. A nil ckeys computes the keys here.
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
func (m *Multiset) BySym(sym symtab.Sym) []Counted {
	s := m.shardForSym(sym)
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.bySym[sym]
	if l == nil {
		return nil
	}
	out := make([]Counted, 0, l.len())
	l.each(func(e *entry) bool {
		out = append(out, Counted{Tuple: e.tuple, N: e.count, Key: e.key})
		return true
	})
	return out
}

// BySymTag returns the distinct tuples matching both label symbol and tag,
// with multiplicities and cached keys, in ascending key order — the
// dynamic-dataflow operand lookup. The slice is a snapshot.
func (m *Multiset) BySymTag(sym symtab.Sym, tag int64) []Counted {
	s := m.shardForSym(sym)
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.bySymTag[symTag{sym, tag}]
	if l == nil {
		return nil
	}
	out := make([]Counted, 0, l.len())
	l.each(func(e *entry) bool {
		out = append(out, Counted{Tuple: e.tuple, N: e.count, Key: e.key})
		return true
	})
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
// ascending key order, passing the entry's cached key fingerprint — the
// matcher's claim-tracking identity — without copying the index. It is a
// one-shot View (see LockView): the shard read lock is held for the whole
// iteration, so fn must not mutate the multiset. A caller enumerating more
// than once per consistent state — the reaction matcher — holds one View
// across all of it instead.
func (m *Multiset) IterSym(sym symtab.Sym, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockView(&v, []symtab.Sym{sym}, false)
	defer v.Unlock()
	v.EachSym(sym, 0, fn)
}

// IterSymTag is IterSym over the (label symbol, tag) index.
func (m *Multiset) IterSymTag(sym symtab.Sym, tag int64, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockView(&v, []symtab.Sym{sym}, false)
	defer v.Unlock()
	v.EachSymTag(sym, tag, 0, fn)
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
	for i := range m.shards {
		m.shards[i].mu.RLock()
	}
	defer func() {
		for i := range m.shards {
			m.shards[i].mu.RUnlock()
		}
	}()
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
	v.EachAll(rot, fn)
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
			d.bySym = make(map[symtab.Sym]*elist, len(s.bySym))
			d.bySymTag = make(map[symTag]*elist, len(s.bySymTag))
		}
		s.sorted.each(func(e *entry) bool {
			d.addEntryLocked(e.tuple, e.key, e.sym, e.count)
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
