package multiset

import "repro/internal/symtab"

// Delta is one reaction firing's consume/produce sets — the unit of
// ApplyDeltas' batched commit. CKeys, when non-nil, must hold Key() of each
// consume tuple (the matcher passes the fingerprints cached on the entries it
// enumerated); a nil CKeys computes them at commit time.
type Delta struct {
	Consume []Tuple
	CKeys   []string
	Produce []Tuple
}

// ApplyDeltas applies k independent firings as one batched commit: a single
// lock acquisition over the union of involved shards, with all-or-nothing
// claim semantics per firing. Deltas are processed in order, each claim
// checked against the multiset as left by the deltas applied before it; a
// failed claim skips exactly that delta (a concurrent worker consumed one of
// its molecules between match and commit). applied, when non-nil, must have
// len(ds) entries and records per-delta success.
//
// The commit is observationally identical to calling ApplyDelta once per
// delta in order — same deltas succeed, same final multiset, and syms
// collects the same deduplicated produce label symbols of the applied deltas
// (the 500-seed property test in batch_test.go pins the equivalence). It
// returns the number of deltas applied and the extended syms.
func (m *Multiset) ApplyDeltas(ds []Delta, applied []bool, syms []symtab.Sym) (int, []symtab.Sym) {
	return m.applyDeltas(ds, applied, nil, syms)
}

// ApplyDeltasSeq is ApplyDeltas that additionally records each applied
// delta's commit sequence number into seqs (which must have len(ds) entries;
// skipped deltas leave their slot untouched). Numbers are drawn in delta
// order while the shard locks are held, so across concurrent batches they
// form a valid sequential linearization of the parallel execution — the
// property the replay recorder sorts on.
func (m *Multiset) ApplyDeltasSeq(ds []Delta, applied []bool, seqs []uint64, syms []symtab.Sym) (int, []symtab.Sym) {
	return m.applyDeltas(ds, applied, seqs, syms)
}

func (m *Multiset) applyDeltas(ds []Delta, applied []bool, seqs []uint64, syms []symtab.Sym) (int, []symtab.Sym) {
	if len(ds) == 0 {
		return 0, syms
	}
	d := deltaPool.Get().(*deltaScratch)
	defer deltaPool.Put(d)
	d.reset()
	var involved [shardCount]bool
	for i := range ds {
		d.stageConsume(ds[i].Consume, ds[i].CKeys, &involved)
		d.stageProduce(ds[i].Produce, &involved)
	}
	m.lockShards(&involved)
	n := 0
	var size int64
	cs, ps := 0, 0
	for i := range ds {
		ce := cs + len(ds[i].Consume)
		pe := ps + len(ds[i].Produce)
		ok := m.claimRangeLocked(cs, ce, d)
		if ok {
			if seqs != nil {
				seqs[i] = m.commitSeq.Add(1)
			}
			m.applyRangeLocked(ds[i].Produce, d, cs, ce, ps, pe)
			size += int64(len(ds[i].Produce)) - int64(len(ds[i].Consume))
			n++
			syms = appendSymsDedup(syms, d.psyms[ps:pe])
		}
		if applied != nil {
			applied[i] = ok
		}
		cs, ps = ce, pe
	}
	m.unlockShards(&involved)
	if size != 0 {
		m.size.Add(size)
	}
	return n, syms
}

// View is a caller-owned read session over a static set of shards: the
// matcher's way to enumerate candidates zero-copy, any number of times against
// one consistent state, while tolerating concurrent commits to other shards.
// A View holds the shard read locks across a probe (the sequential matcher)
// or a whole multi-firing batch of probes (the pool) and walks the live
// chunked indexes from a caller-chosen rotation: 0 is ascending key order, an
// rng-drawn one decorrelates concurrent searchers without copying or
// shuffling anything. Writers to the viewed shards block for the duration,
// which is exactly the window an optimistic matcher wants: candidates cannot
// vanish mid-enumeration, staleness is confined to the commit and caught by
// its claim.
//
// The shard set is fixed at LockView from the label symbols the caller's
// patterns can touch (generic patterns need all=true); locks are taken in
// shard index order, the same deadlock-avoidance order every multi-shard
// writer uses. A View must be Unlocked before the commit's write locks are
// taken. The zero View is ready for LockView and reusable after Unlock.
type View struct {
	m        *Multiset
	involved [shardCount]bool
	locked   bool
}

// LockView read-locks the shards that can hold tuples labeled with any of
// syms, or every shard when all is set.
func (m *Multiset) LockView(v *View, syms []symtab.Sym, all bool) {
	if v.locked {
		panic("multiset: LockView on an already locked View")
	}
	for i := range v.involved {
		v.involved[i] = all
	}
	if !all {
		for _, sym := range syms {
			v.involved[uint32(sym)&(shardCount-1)] = true
		}
	}
	v.m = m
	for i := range m.shards {
		if v.involved[i] {
			m.shards[i].mu.RLock()
		}
	}
	v.locked = true
}

// Unlock releases the view's read locks and its reference to the multiset.
// Idempotent, so panic-recovery paths can call it unconditionally.
func (v *View) Unlock() {
	if !v.locked {
		return
	}
	v.locked = false
	for i := range v.m.shards {
		if v.involved[i] {
			v.m.shards[i].mu.RUnlock()
		}
	}
	v.m = nil
}

// EachSym enumerates the distinct tuples labeled sym — which must route to a
// viewed shard — starting at a rotated position derived from rot and
// wrapping around, so the walk is exhaustive. Each candidate carries its
// multiplicity and cached fingerprint.
func (v *View) EachSym(sym symtab.Sym, rot uint64, fn func(t Tuple, n int, key string) bool) {
	s := v.shardChecked(uint32(sym) & (shardCount - 1))
	if l := s.bySym[sym]; l != nil {
		l.eachRot(rot, func(e *entry) bool { return fn(e.tuple, e.count, e.key) })
	}
}

// EachSymTag is EachSym over the (label symbol, tag) index.
func (v *View) EachSymTag(sym symtab.Sym, tag int64, rot uint64, fn func(t Tuple, n int, key string) bool) {
	s := v.shardChecked(uint32(sym) & (shardCount - 1))
	if l := s.bySymTag[symTag{sym, tag}]; l != nil {
		l.eachRot(rot, func(e *entry) bool { return fn(e.tuple, e.count, e.key) })
	}
}

// EachAll enumerates every distinct tuple of the multiset (the view must
// hold all shards), rotating both the shard order and the position within
// each shard.
func (v *View) EachAll(rot uint64, fn func(t Tuple, n int, key string) bool) {
	start := int(uint32(rot) % shardCount)
	stop := false
	for i := 0; i < shardCount && !stop; i++ {
		s := v.shardChecked(uint32((start + i) & (shardCount - 1)))
		s.sorted.eachRot(rot, func(e *entry) bool {
			stop = !fn(e.tuple, e.count, e.key)
			return !stop
		})
	}
}

// shardChecked returns the shard at index si, panicking when the view does
// not hold its lock — a misrouted enumeration would otherwise race writers
// silently.
func (v *View) shardChecked(si uint32) *shard {
	if !v.locked || !v.involved[si] {
		panic("multiset: View enumeration outside the locked shard set")
	}
	return &v.m.shards[si]
}
