package multiset

import "repro/internal/symtab"

// Delta is one reaction firing's consume/produce sets — the unit of a commit.
// The consume side is addressed by Refs, the handles the matcher's View
// issued, or when Refs is nil by the Consume tuples, CKeys optionally holding
// Key() of each. PSyms, when non-nil, holds the label symbol of each Produce
// tuple the caller already knows (a kernel's literal labels), else symtab.None.
type Delta struct {
	Consume []Tuple
	CKeys   []string
	Refs    []Ref
	Produce []Tuple
	PSyms   []symtab.Sym
}

// View is a caller-owned session on the multiset's lock: the matcher's way to
// enumerate candidates zero-copy, any number of times against one state,
// from a chosen rotation — 0 is ascending key order, an rng-drawn one the
// model's nondeterministic selection, with nothing copied or shuffled.
//
// A read View (LockRead) holds the read lock across a probe or a query:
// candidates cannot vanish mid-enumeration, and a handle that goes stale
// afterwards fails the commit's claim. A write View (LockWrite) is the
// writer's session: the lock taken once, then enumerated and committed to
// (Commit); its holder gives it up and retakes it at a fixed period so
// readers wait a bounded time.
//
// The zero View is ready for locking and reusable after Unlock. Enumerating
// through a View that is not locked panics: it would race the writer silently.
type View struct {
	m      *Multiset
	locked bool
	write  bool
}

// LockRead starts a read session on m.
func (m *Multiset) LockRead(v *View) { m.lock(v, false) }

// LockWrite starts a write session on m (see View).
func (m *Multiset) LockWrite(v *View) { m.lock(v, true) }

func (m *Multiset) lock(v *View, write bool) {
	if v.locked {
		panic("multiset: locking an already locked View")
	}
	if write {
		m.mu.Lock()
	} else {
		m.mu.RLock()
	}
	v.m, v.write, v.locked = m, write, true
}

// Unlock ends the session and drops the view's reference to the multiset.
// Idempotent, so panic-recovery paths can call it unconditionally.
func (v *View) Unlock() {
	if !v.locked {
		return
	}
	v.locked = false
	if v.write {
		v.m.mu.Unlock()
	} else {
		v.m.mu.RUnlock()
	}
	v.m = nil
}

// Commit applies one firing from inside a write session: the commit core (see
// Multiset.commit), entered with the lock already held.
func (v *View) Commit(dl *Delta, numbered bool, syms []symtab.Sym) (seq uint64, ok bool, _ []symtab.Sym) {
	if !v.locked || !v.write {
		panic("multiset: Commit outside a write session")
	}
	return v.m.commit(dl, numbered, syms)
}

// held returns the session's multiset.
func (v *View) held() *Multiset {
	if !v.locked {
		panic("multiset: enumeration through an unlocked View")
	}
	return v.m
}

// ref adapts a handle callback to the lists' entry callback: the handle a
// session issues for e is e at its current gen, with the slot it was met at.
func ref(fn func(Ref) bool) func(*entry, slot) bool {
	return func(e *entry, at slot) bool { return fn(Ref{e, e.gen, at}) }
}

// EachSym enumerates the distinct tuples labeled sym as handles, starting at a
// rotated position derived from rot and wrapping around, so the walk is
// exhaustive. It reports whether the walk ran to completion (fn never
// returned false).
func (v *View) EachSym(sym symtab.Sym, rot uint64, fn func(Ref) bool) bool {
	_, li := v.held().home(sym, false)
	return li == nil || li.all.eachRot(rot, ref(fn))
}

// EachSymTag is EachSym over the entries of the label that carry index tag
// tag: the (label, tag) bucket, or for a label too small to have buckets a
// filtered walk of its list.
func (v *View) EachSymTag(sym symtab.Sym, tag int64, rot uint64, fn func(Ref) bool) bool {
	_, li := v.held().home(sym, false)
	return li == nil || li.eachTag(tag, rot, ref(fn))
}

// EachAll enumerates every distinct tuple of the multiset: its bare list, then
// its labels' lists by symbol, each from a rotated position derived from rot.
func (v *View) EachAll(rot uint64, fn func(Ref) bool) {
	v.held().eachRot(rot, ref(fn))
}
