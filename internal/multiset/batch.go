package multiset

import (
	"sync"

	"repro/internal/symtab"
)

// Delta is one reaction firing's consume/produce sets — the unit of
// ApplyDeltas' batched commit. The consume side is addressed one of two ways:
// by Refs, the handles the matcher's View issued (Consume is then not read),
// or, when Refs is nil, by the Consume tuples themselves, with CKeys
// optionally supplying Key() of each. PSyms, when non-nil, holds the label
// symbol of each Produce tuple the caller already knows — a kernel resolves
// its literal product labels once — and symtab.None where it does not.
type Delta struct {
	Consume []Tuple
	CKeys   []string
	Refs    []Ref
	Produce []Tuple
	PSyms   []symtab.Sym
}

// ApplyDeltas applies k independent firings as one batched commit: a single
// lock acquisition over the union of involved shards, with all-or-nothing
// claim semantics per firing. Deltas are processed in order, each claim
// checked against the multiset as left by the deltas applied before it; a
// failed claim skips exactly that delta (a concurrent worker consumed one of
// its molecules between match and commit). applied and seqs, when non-nil,
// have len(ds) entries: per-delta success, and each applied delta's commit
// sequence number — drawn in delta order while the shard locks are held, so
// across concurrent batches the numbers form a valid linearization of the
// parallel execution, the property the replay recorder sorts on.
//
// The commit is observationally identical to calling ApplyDelta once per
// delta in order — same deltas succeed, same final multiset, and syms
// collects the same deduplicated produce label symbols of the applied deltas
// (the 500-seed property test in batch_test.go pins the equivalence). It
// returns the number of deltas applied and the extended syms.
func (m *Multiset) ApplyDeltas(ds []Delta, applied []bool, seqs []uint64, syms []symtab.Sym) (int, []symtab.Sym) {
	return m.applyDeltas(ds, applied, seqs, syms, 0)
}

// applyDeltas is the commit core under every writer: ApplyDelta(s) enter with
// held 0 and lock the shards the batch touches; a write session's Commit
// enters holding them all.
func (m *Multiset) applyDeltas(ds []Delta, applied []bool, seqs []uint64, syms []symtab.Sym, held uint32) (int, []symtab.Sym) {
	if len(ds) == 0 {
		return 0, syms
	}
	d := deltaPool.Get().(*deltaScratch)
	defer deltaPool.Put(d)
	d.reset()
	var mask uint32
	for i := range ds {
		d.stage(&ds[i], &mask)
	}
	mask &^= held
	m.eachShard(mask, (*sync.RWMutex).Lock)
	n := 0
	var size int64
	kc, ps := 0, 0
	for i := range ds {
		dl := &ds[i]
		ok := m.claimLocked(dl, d, kc)
		if ok {
			if seqs != nil {
				seqs[i] = m.commitSeq.Add(1)
			}
			m.applyRangeLocked(dl.Produce, d, ps)
			size += int64(len(dl.Produce) - len(d.cents))
			n++
			syms = appendSymsDedup(syms, d.psyms[ps:ps+len(dl.Produce)])
		}
		if applied != nil {
			applied[i] = ok
		}
		if dl.Refs == nil {
			kc += len(dl.Consume)
		}
		ps += len(dl.Produce)
	}
	if size != 0 {
		m.size.Add(size) // inside the locks: Len equals the sum of counts whenever every shard is held
	}
	m.eachShard(mask, (*sync.RWMutex).Unlock)
	return n, syms
}

// View is a caller-owned session over a static set of shards: the matcher's
// way to enumerate candidates zero-copy, any number of times against one
// consistent state, walking the live chunked lists from a caller-chosen
// rotation — 0 is ascending key order, an rng-drawn one decorrelates
// concurrent searchers without copying or shuffling anything.
//
// A read View (LockView) holds the shard read locks across a probe (FindMatch)
// or a whole multi-firing batch of probes (the pool) and tolerates commits to
// other shards. Writers to the viewed shards block for the duration, which is
// the window an optimistic matcher wants: candidates cannot vanish
// mid-enumeration, staleness is confined to the commit and caught by its
// claim. It must be Unlocked before the commit's write locks are taken.
//
// A write View (LockWrite) is the session of a multiset's only writer, the
// sequential engine: every shard write-locked once, then enumerated and
// committed to (Commit) with no further lock operation. Its holder owes
// concurrent readers a bounded wait, so it gives the session up and takes it
// again at a fixed period.
//
// Locks are taken in shard index order, the deadlock-avoidance order every
// multi-shard operation uses. The zero View is ready for locking and reusable
// after Unlock.
type View struct {
	m      *Multiset
	mask   uint32 // the shards held
	locked bool
	write  bool
}

const allShards = 1<<shardCount - 1

// LockView read-locks the shards that can hold tuples labeled with any of
// syms, or every shard when all is set.
func (m *Multiset) LockView(v *View, syms []symtab.Sym, all bool) {
	mask := uint32(0)
	if all {
		mask = allShards
	}
	for _, sym := range syms {
		mask |= 1 << (uint32(sym) & (shardCount - 1))
	}
	m.lock(v, mask, false)
}

// LockWrite write-locks every shard: a write session (see View).
func (m *Multiset) LockWrite(v *View) { m.lock(v, allShards, true) }

func (m *Multiset) lock(v *View, mask uint32, write bool) {
	if v.locked {
		panic("multiset: locking an already locked View")
	}
	if write {
		m.eachShard(mask, (*sync.RWMutex).Lock)
	} else {
		m.eachShard(mask, (*sync.RWMutex).RLock)
	}
	v.m, v.mask, v.write, v.locked = m, mask, write, true
}

// Unlock releases the view's locks and its reference to the multiset.
// Idempotent, so panic-recovery paths can call it unconditionally.
func (v *View) Unlock() {
	if !v.locked {
		return
	}
	v.locked = false
	if v.write {
		v.m.eachShard(v.mask, (*sync.RWMutex).Unlock)
	} else {
		v.m.eachShard(v.mask, (*sync.RWMutex).RUnlock)
	}
	v.m = nil
}

// Commit is ApplyDeltas from inside a write session: the same commit core,
// entered with every lock already held.
func (v *View) Commit(ds []Delta, applied []bool, seqs []uint64, syms []symtab.Sym) (int, []symtab.Sym) {
	if !v.locked || !v.write {
		panic("multiset: Commit outside a write session")
	}
	return v.m.applyDeltas(ds, applied, seqs, syms, v.mask)
}

// EachSym enumerates the distinct tuples labeled sym — which must route to a
// viewed shard — as handles, starting at a rotated position derived from rot
// and wrapping around, so the walk is exhaustive. It reports whether the walk
// ran to completion (fn never returned false).
func (v *View) EachSym(sym symtab.Sym, rot uint64, fn func(Ref) bool) bool {
	si := uint32(sym) & (shardCount - 1)
	_, li := v.shardChecked(si).home(sym, false)
	return li == nil || li.all.eachRot(rot, func(e *entry) bool { return fn(Ref{e, e.gen, si}) })
}

// EachSymTag is EachSym over the entries of the label that carry index tag
// tag: the (label, tag) bucket, or for a label too small to have buckets a
// filtered walk of its list.
func (v *View) EachSymTag(sym symtab.Sym, tag int64, rot uint64, fn func(Ref) bool) bool {
	si := uint32(sym) & (shardCount - 1)
	_, li := v.shardChecked(si).home(sym, false)
	return li == nil || li.eachTag(tag, rot, func(e *entry) bool { return fn(Ref{e, e.gen, si}) })
}

// EachAll enumerates every distinct tuple of the multiset (the view must
// hold all shards), rotating both the shard order and the position within
// each list of a shard: its bare list, then its labels' lists in order.
func (v *View) EachAll(rot uint64, fn func(Ref) bool) {
	start := uint32(rot) % shardCount
	for i := uint32(0); i < shardCount; i++ {
		si := (start + i) & (shardCount - 1)
		if !v.shardChecked(si).eachRot(rot, func(e *entry) bool { return fn(Ref{e, e.gen, si}) }) {
			return
		}
	}
}

// shardChecked returns the shard at index si, panicking when the view does
// not hold its lock — a misrouted enumeration would otherwise race writers
// silently.
func (v *View) shardChecked(si uint32) *shard {
	if !v.locked || v.mask>>si&1 == 0 {
		panic("multiset: View enumeration outside the locked shard set")
	}
	return &v.m.shards[si]
}
