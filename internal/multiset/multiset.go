package multiset

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/symtab"
	"repro/internal/value"
)

// NoLabelSym is the delta marker ApplyDelta reports for produced tuples that
// carry no string label field. A real "\x00" label shares it, which only
// wakes a superset of the reactions that could match (gamma's subscriptions).
var NoLabelSym = symtab.Intern("\x00")

// entry is one distinct tuple with its multiplicity. key caches Tuple.Key()
// (the ordering of every list), li the label index whose all list is its home
// (nil: the bare list) and tag the index tag, so unlinking looks up nothing.
// owner (the Multiset's id, 0 on a freelist) and gen (bumped on every unlink)
// make a Ref checkable, in what was padding, as do mark (see seal; 0: shared)
// and kcap, the key carve's capacity, which reuse keeps (carve).
type entry struct {
	tuple  Tuple
	key    string
	li     *labelIndex
	count  int
	tag    int64
	gen    uint32
	owner  uint32
	hasTag bool
	kcap   uint16
	mark   uint32
}

// Ref is an element handle: what a View hands the matcher, and what a Delta
// carries back to the commit, in place of the key string. It is valid under
// the View that issued it, and afterwards only in a commit on the same
// Multiset: a Ref whose entry was consumed since (gen moved, even if the struct
// was re-issued) or is another Multiset's (owner) fails its claim.
//
// at is where the issuing walk met the entry, in what was padding: the commit
// unlinks there after one check, and searches by key only when it fails. It
// is not part of the handle's identity (see Same).
type Ref struct {
	e   *entry
	gen uint32
	at  slot
}

// Tuple and Count read the element; call them only under the issuing View.
// The tuple is the entry's own cells: they hold until the commit after the
// one that consumes the element, which may reuse them (carve).
func (r Ref) Tuple() Tuple { return r.e.tuple }
func (r Ref) Count() int   { return r.e.count }

// Same reports whether r and o name the same element: entry and generation,
// whatever slot each was met at.
func (r Ref) Same(o Ref) bool { return r.e == o.e && r.gen == o.gen }

// freeMax bounds the entry freelist.
const freeMax = 1024

// Multiset is the Gamma model's single database: a counted multiset of
// tuples behind one reader/writer lock, safe for concurrent use. The zero
// value is not usable; call New.
//
// An entry has one home: its label's all list (labelIndex in elist.go), or
// bare when it carries no label. Every list ascends by key, and no hash of
// keys stands beside them: the search that places a tuple is what finds it
// already there (locate). Enumeration is an in-order walk of a list; file and
// unlink are the only code that links or unlinks an entry.
type Multiset struct {
	id   uint32 // process-unique, never 0: what binds a Ref to its Multiset
	mu   sync.RWMutex
	bare elist
	// labels ascends by symbol — found by binary search, and the order of a
	// whole-multiset walk (eachRot), which so depends on symbol numbering.
	labels []*labelIndex
	// free recycles entry structs across unlink/add cycles (bounded by
	// freeMax), zeroed except gen; spare the tuple cells and key bytes of
	// those nothing outside m has seen (carve), as epoch tells (seal).
	free  []*entry
	spare []spare
	epoch atomic.Uint32
	// arena chunk-allocates entries, key strings and tuple-cell copies for
	// freelist misses (see arena.go) — the commit path's hot allocations.
	arena   arena
	scratch deltaScratch // commit's bookkeeping, reused under the write lock
	size    atomic.Int64 // total element count incl. multiplicity
	// commitSeq numbers committed writes (commit's seq), drawn under the
	// lock, so a consumer's number exceeds its producer's: a linearization
	// replay recorders sort a parallel run by. It is the multiset's own seq,
	// or in a part of a Partition that of the multiset that was split.
	commitSeq *atomic.Uint64
	seq       atomic.Uint64
}

// New returns a multiset holding tuples — what adding them one by one gives,
// built in one pass (build).
func New(tuples ...Tuple) *Multiset {
	m := &Multiset{id: lastID.Add(1)}
	m.commitSeq = &m.seq
	m.build(tuples, false)
	return m
}

// build files ts into m, new and unshared, as len(ts) Adds would — labels
// interned in argument order (so the walk order is theirs), the same entries,
// counts and list order — but sorts once: keys rendered into one buffer,
// elements sorted by key (which holds the label, so each list's run ascends)
// and equal keys folded, then entries, keys and — unless owned, cells Parse
// scanned into m's arena — cells carved as one run each (arena.reserve) and
// filed at their lists' ends (tail).
func (m *Multiset) build(ts []Tuple, owned bool) {
	if len(ts) == 0 {
		return
	}
	type elem struct {
		sym    symtab.Sym
		i      int32 // index in ts
		k0, k1 int   // the key, kb[k0:k1]
	}
	es := make([]elem, len(ts))
	kb := make([]byte, 0, 12*len(ts)) // about a pair's key each
	cells := 0
	for i, t := range ts {
		es[i] = elem{symtab.None, int32(i), len(kb), 0}
		if l, ok := t.Label(); ok && i > 0 && es[i-1].sym != symtab.None && l == ts[i-1][1].AsString() {
			es[i].sym = es[i-1].sym // a run of one label interns it once
		} else if ok {
			es[i].sym = symtab.Intern(l)
		}
		kb = t.AppendKey(kb)
		es[i].k1, cells = len(kb), cells+len(t)
	}
	slices.SortFunc(es, func(a, b elem) int { return bytes.Compare(kb[a.k0:a.k1], kb[b.k0:b.k1]) })
	if owned {
		cells = 0
	}
	m.arena.reserve(len(ts), len(kb), cells)
	w := tail{m: m}
	for j := 0; j < len(es); {
		e, k := es[j], j+1
		for k < len(es) && bytes.Equal(kb[es[k].k0:es[k].k1], kb[e.k0:e.k1]) { // an equal key is the same tuple
			k++
		}
		t := ts[e.i]
		if !owned {
			t = m.arena.cloneTuple(t, nil)
		}
		w.file(e.sym, t, m.arena.internKey(kb[e.k0:e.k1], e.k1-e.k0), k-j).own(m, e.k1-e.k0)
		j = k
	}
	m.size.Store(int64(len(ts)))
}

// tail files entries arriving ascending in each list (build's sorted run,
// Clone's walk) at their lists' ends, looking a list up once per run.
type tail struct {
	m    *Multiset
	sym  symtab.Sym
	home *elist
	li   *labelIndex
}

func (w *tail) file(sym symtab.Sym, t Tuple, key string, n int) *entry {
	if w.home == nil || sym != w.sym {
		w.sym = sym
		w.home, w.li = w.m.home(sym, true)
	}
	return w.m.file(w.home, w.li, w.home.end(), t, key, n)
}

// labelSymOf interns the tuple's label, or returns symtab.None when t has no
// string label field: the insert side's resolution.
func labelSymOf(t Tuple) symtab.Sym {
	if label, ok := t.Label(); ok {
		return symtab.Intern(label)
	}
	return symtab.None
}

// knownSymOf is the query side's, interning nothing: a label nobody interned
// is on no tuple (ok false), and queries cannot grow the symbol table.
func knownSymOf(t Tuple) (sym symtab.Sym, ok bool) {
	label, labeled := t.Label()
	if !labeled {
		return symtab.None, true
	}
	return symtab.SymOf(label)
}

// Add inserts one occurrence of t.
func (m *Multiset) Add(t Tuple) { m.AddN(t, 1) }

// AddN inserts n occurrences of t. n must be positive.
func (m *Multiset) AddN(t Tuple, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("multiset: AddN(%s, %d): n must be positive", t, n))
	}
	var buf [64]byte
	key, sym := t.AppendKey(buf[:0]), labelSymOf(t)
	m.mu.Lock()
	m.add(t, key, sym, n, 1)
	m.size.Add(int64(n))
	m.mu.Unlock()
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

// home returns, with the lock held, the list a tuple labeled sym is filed in
// and its label index (nil for bare), made on its first insert if create.
func (m *Multiset) home(sym symtab.Sym, create bool) (*elist, *labelIndex) {
	if sym == symtab.None {
		return &m.bare, nil
	}
	i, n := 0, len(m.labels)
	for i < n {
		if mid := int(uint(i+n) >> 1); m.labels[mid].sym < sym {
			i = mid + 1
		} else {
			n = mid
		}
	}
	if i == len(m.labels) || m.labels[i].sym != sym {
		if !create {
			return nil, nil
		}
		m.labels = slices.Insert(m.labels, i, &labelIndex{sym: sym})
	}
	return &m.labels[i].all, m.labels[i]
}

// find returns, with the lock held, the entry filed under key (bytes or
// string) and label sym, nil when there is none.
func find[K string | []byte](m *Multiset, sym symtab.Sym, key K) *entry {
	home, _ := m.home(sym, false)
	if home == nil {
		return nil
	}
	_, e := locate(home, key)
	return e
}

// add files, with the write lock held, n occurrences of t, whose fingerprint
// is key and label sym: one search of its home list finds the tuple there
// (its count grows) or where a new entry, and only then its carves (a fresh
// key carve a whole number of q bytes, q a power of two), goes.
func (m *Multiset) add(t Tuple, key []byte, sym symtab.Sym, n, q int) {
	home, li := m.home(sym, true)
	if at, e := locate(home, key); e != nil {
		e.count += n
	} else {
		t, k, kcap := m.carve(t, key, q)
		m.file(home, li, at, t, k, n).own(m, kcap)
	}
}

// spare is the tuple cells and key bytes of an entry a commit unlinked.
type spare struct {
	cells Tuple
	key   []byte
}

// carve copies t and its key into the last spare's carves where they fit,
// else fresh ones, and returns the key carve's capacity: kept whole on reuse,
// so a commit's products, whose fresh keys take 32-byte units (apply), keep
// fitting the carves of the renames they follow as keys grow a digit.
func (m *Multiset) carve(t Tuple, key []byte, q int) (Tuple, string, int) {
	var sp spare
	if k, last := m.scratch.avail-1, len(m.spare)-1; k >= 0 { // freed before this commit
		sp, m.spare[k] = m.spare[k], m.spare[last]
		m.spare, m.scratch.avail = m.spare[:last], k
	}
	t = m.arena.cloneTuple(t, sp.cells)
	if c := (len(key) + q - 1) &^ (q - 1); len(key) == 0 || len(key) > cap(sp.key) {
		return t, m.arena.internKey(key, c), c
	}
	return t, unsafe.String(&sp.key[0], copy(sp.key[:len(key)], key)), cap(sp.key)
}

// own marks e's carves, its key's of capacity kcap (past 16 bits: less), m's.
func (e *entry) own(m *Multiset, kcap int) { e.mark, e.kcap = m.epoch.Load()+1, uint16(kcap) }

// seal marks every carve m has made as seen outside it, never to be reused:
// every surface that hands a tuple or key out calls it, under the read lock.
// A carve is m's own while its entry's mark is one past the epoch.
func (m *Multiset) seal() { m.epoch.Add(1) }

// file links a new entry for t and key — arena carves, or the ones Clone
// shares — at position at of home, the list of li, and in li's buckets.
func (m *Multiset) file(home *elist, li *labelIndex, at epos, t Tuple, key string, n int) *entry {
	var e *entry
	if k := len(m.free); k > 0 {
		e, m.free[k-1], m.free = m.free[k-1], nil, m.free[:k-1]
	} else {
		e = m.arena.newEntry()
	}
	e.tuple, e.key, e.count, e.li, e.owner = t, key, n, li, m.id
	home.insertAt(at, e)
	if li != nil {
		if len(t) >= 3 {
			e.tag, e.hasTag = IndexTag(t[2])
		}
		li.linked(e)
	}
	return e
}

// unlink removes e from its home list (at the slot hint if it still holds e)
// and its bucket, with the write lock held, and retires the struct to the
// freelist zeroed but for gen, which moves: outstanding Refs fail their claim.
// m's own carves become spares past scratch.avail, which carve leaves to the
// next commit (a recorder reads them), capped lower than the freelist: a
// shrinking run reuses none.
func (m *Multiset) unlink(e *entry, hint slot) {
	if li := e.li; li == nil {
		m.bare.removeAt(m.bare.seek(e, hint))
	} else {
		li.all.removeAt(li.all.seek(e, hint))
		li.unlinked(e)
	}
	if e.mark == m.epoch.Load()+1 && e.key != "" && len(m.spare) < freeMax/16 {
		if m.spare == nil {
			m.spare = make([]spare, 0, 8) // what a short run frees, in one allocation
		}
		m.spare = append(m.spare, spare{e.tuple, unsafe.Slice(unsafe.StringData(e.key), e.kcap)})
	}
	*e = entry{gen: e.gen + 1}
	if len(m.free) < freeMax {
		m.free = append(m.free, e)
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

// deltaScratch is the commit core's scratch, reused so a commit allocates no
// bookkeeping.
type deltaScratch struct {
	cents []Ref
	psyms []symtab.Sym
	kbuf  []byte
	ccan  []bool // annihilation marks
	pcan  []bool
	avail int // spares a product may take: m.spare[:avail], all between commits
}

// lastID numbers the Multisets of the process (Multiset.id).
var lastID atomic.Uint32

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

// commit is the core under both doors — View.Commit and ApplyDelta — with the
// write lock held: one firing's all-or-nothing claim, then its consume and
// produce. It reports whether the claim held (a failed one modifies nothing),
// appends the products' label symbols to syms, and when numbered draws the
// firing's sequence number (Multiset.commitSeq).
func (m *Multiset) commit(dl *Delta, numbered bool, syms []symtab.Sym) (seq uint64, ok bool, _ []symtab.Sym) {
	d := &m.scratch
	if !m.claim(dl, d) {
		return 0, false, syms
	}
	if numbered {
		seq = m.commitSeq.Add(1)
	}
	m.apply(dl, d)
	if grew := len(dl.Produce) - len(d.cents); grew != 0 {
		m.size.Add(int64(grew)) // inside the lock: Len equals the sum of counts whenever it is held
	}
	return seq, true, appendSymsDedup(syms, d.psyms)
}

// claim resolves the firing's consume side to entries (d.cents) and checks,
// modifying nothing, that all are there: a handle's entry if it is still the
// element issued, in this multiset; a key's by a search of its home list
// (knownSymOf: interning nothing). A duplicate needs that many occurrences.
func (m *Multiset) claim(dl *Delta, d *deltaScratch) bool {
	d.cents = d.cents[:0]
	for _, r := range dl.Refs {
		if r.e == nil || r.e.owner != m.id || r.e.gen != r.gen {
			return false
		}
		d.cents = append(d.cents, r)
	}
	if dl.Refs == nil {
		for i, t := range dl.Consume {
			sym, known := knownSymOf(t)
			if !known {
				return false
			}
			var e *entry
			if dl.CKeys != nil {
				e = find(m, sym, dl.CKeys[i])
			} else {
				d.kbuf = t.AppendKey(d.kbuf[:0])
				e = find(m, sym, d.kbuf)
			}
			if e == nil {
				return false
			}
			d.cents = append(d.cents, Ref{e: e}) // slot 0: the list head, else a search
		}
	}
	for i, c := range d.cents {
		need := 1
		for _, prev := range d.cents[:i] {
			if prev.e == c.e {
				need++
			}
		}
		if c.e.count < need {
			return false
		}
	}
	return true
}

// apply commits the firing whose claim just passed: the claimed entries
// (d.cents) lose one occurrence each and the products are inserted, under the
// symbol PSyms names, else their own. A product equal to a claimed entry
// annihilates with it — no list is touched, no key rendered; the claim was
// checked gross, so this is still remove-then-insert. Entries unlink last
// claim first, so of two neighbours met in walk order the earlier one's slot
// still holds it.
func (m *Multiset) apply(dl *Delta, d *deltaScratch) {
	d.psyms, d.ccan, d.pcan = d.psyms[:0], slices.Grow(d.ccan[:0], len(d.cents))[:len(d.cents)], d.pcan[:0]
	clear(d.ccan)
	for pi, t := range dl.Produce {
		sym := symtab.None
		if dl.PSyms != nil {
			sym = dl.PSyms[pi]
		}
		if sym == symtab.None {
			sym = labelSymOf(t)
		}
		d.psyms = append(d.psyms, sym)
		can := false
		for cj, c := range d.cents {
			if !d.ccan[cj] && t.Equal(c.e.tuple) {
				d.ccan[cj], can = true, true
				break
			}
		}
		d.pcan = append(d.pcan, can)
	}
	for cj := len(d.cents) - 1; cj >= 0; cj-- {
		if c := d.cents[cj]; !d.ccan[cj] {
			if c.e.count--; c.e.count == 0 {
				m.unlink(c.e, c.at)
			}
		}
	}
	for pi, t := range dl.Produce {
		if !d.pcan[pi] {
			d.kbuf = t.AppendKey(d.kbuf[:0])
			m.add(t, d.kbuf, d.psyms[pi], 1, 32)
		}
	}
	d.avail = len(m.spare)
}

// TryRemoveAll atomically removes one occurrence of every tuple in ts, all or
// nothing, duplicates requiring that many: a produce-less ApplyDelta, the
// claim half of the two-phase TryRemoveAll/AddAll commit (see AddAll).
func (m *Multiset) TryRemoveAll(ts []Tuple) bool {
	ok, _ := m.ApplyDelta(ts, nil, nil, nil)
	return ok
}

// ApplyDelta is one reaction firing's consume+produce as a single commit: it
// atomically removes one occurrence of every tuple in consume (all-or-nothing,
// duplicates requiring that many occurrences) and, on success, inserts every
// tuple in produce. It is the key-addressed door of the commit (replay, tests,
// tools) onto the core the matcher's handles use (View.Commit). ckeys, when
// non-nil, holds Key() of each consume tuple.
//
// On success it appends the deduplicated label symbols of the products to
// syms (NoLabelSym for unlabeled ones) — what drives the incremental reaction
// scheduler. On a failed claim nothing is modified and syms is returned as is.
func (m *Multiset) ApplyDelta(consume []Tuple, ckeys []string, produce []Tuple, syms []symtab.Sym) (bool, []symtab.Sym) {
	dl := Delta{Consume: consume, CKeys: ckeys, Produce: produce}
	m.mu.Lock()
	_, ok, syms := m.commit(&dl, false, syms)
	m.mu.Unlock()
	return ok, syms
}

// Count returns the multiplicity of t.
func (m *Multiset) Count(t Tuple) int {
	sym, known := knownSymOf(t)
	if !known {
		return 0
	}
	var buf [64]byte
	key := t.AppendKey(buf[:0])
	m.mu.RLock()
	defer m.mu.RUnlock()
	if e := find(m, sym, key); e != nil {
		return e.count
	}
	return 0
}

// Contains reports whether at least one occurrence of t is present.
func (m *Multiset) Contains(t Tuple) bool { return m.Count(t) > 0 }

// Len returns the total number of elements, counting multiplicity.
func (m *Multiset) Len() int { return int(m.size.Load()) }

// ByLabel returns a snapshot of the distinct tuples labeled label, with their
// multiplicities and cached keys, ascending by key; an unknown label interns
// nothing.
func (m *Multiset) ByLabel(label string) (out []Counted) {
	if sym, ok := symtab.SymOf(label); ok {
		m.IterSym(sym, func(t Tuple, n int, key string) bool {
			out = append(out, Counted{Tuple: t, N: n, Key: key})
			return true
		})
	}
	return out
}

// IterSym calls fn once per distinct tuple labeled sym, ascending by key, with
// the entry's cached key, copying nothing: a one-shot View (LockRead), whose
// read lock fn must not write under; to enumerate twice, hold one View. The
// tuples and keys stay valid after it: handing them out seals them.
func (m *Multiset) IterSym(sym symtab.Sym, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	m.seal()
	v.EachSym(sym, 0, unref(fn))
}

// IterSymTag is IterSym over the (label symbol, tag) index.
func (m *Multiset) IterSymTag(sym symtab.Sym, tag int64, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	m.seal()
	v.EachSymTag(sym, tag, 0, unref(fn))
}

// unref adapts a tuple callback to the View's handle callback.
func unref(fn func(t Tuple, n int, key string) bool) func(Ref) bool {
	return func(r Ref) bool { return fn(r.e.tuple, r.e.count, r.e.key) }
}

// IterAllRot calls fn once per distinct tuple of the whole multiset with the
// entry's cached key, each list from a position derived from rot (View.EachAll):
// exhaustive and, for a fixed rot and state, deterministic. A one-shot View,
// with IterSym's locking contract.
func (m *Multiset) IterAllRot(rot uint64, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	m.seal()
	v.EachAll(rot, unref(fn))
}

// Counted is a distinct tuple, its multiplicity and, from an index, its Key:
// the multiset's own carves, which stay valid since handing them out sealed
// them (no commit reuses them).
type Counted struct {
	Tuple Tuple
	N     int
	Key   string
}

// ForEach calls fn once per distinct tuple with its multiplicity, stopping
// early if fn returns false, under the read lock: fn must not mutate the
// multiset.
func (m *Multiset) ForEach(fn func(t Tuple, n int) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.seal()
	m.eachRot(0, func(e *entry, _ slot) bool { return fn(e.tuple, e.count) })
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

// eachRot walks every entry, with the lock held — bare, then each label's list
// by symbol, each list from rotation rot (0: ascending) — until fn returns
// false, and reports whether it ran to completion.
func (m *Multiset) eachRot(rot uint64, fn func(*entry, slot) bool) bool {
	if !m.bare.eachRot(rot, fn) {
		return false
	}
	for _, li := range m.labels {
		if !li.all.eachRot(rot, fn) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy with its own entries and counts, built
// from what the entries cache — the tuple and key, shared (sealed: neither
// reuses them), and the home — with nothing copied, rendered, interned or
// searched for: each entry goes at its list's end (tail), under a read lock.
func (m *Multiset) Clone() *Multiset {
	c := New() // not shared yet: needs no lock
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.seal()
	w := tail{m: c}
	m.eachRot(0, func(e *entry, _ slot) bool {
		sym := symtab.None
		if e.li != nil {
			sym = e.li.sym
		}
		w.file(sym, e.tuple, e.key, e.count)
		return true
	})
	c.size.Store(m.size.Load())
	return c
}

// ArenaBytes is the arena chunk bytes carved so far. It moves only on a chunk
// refill, never per element.
func (m *Multiset) ArenaBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.arena.bytes
}

// Equal reports whether two multisets hold exactly the same elements with the
// same multiplicities: equal sizes, and every element of m as often in o.
func (m *Multiset) Equal(o *Multiset) bool {
	if m.Len() != o.Len() {
		return false
	}
	equal := true
	m.ForEach(func(t Tuple, n int) bool {
		equal = o.Count(t) == n
		return equal
	})
	return equal
}

// String renders the multiset in the paper's style, sorted for determinism:
// {[1, 'A1', 0], [5, 'B1', 0]}. Multiplicities repeat the element.
func (m *Multiset) String() string {
	var elems []string
	for _, c := range m.Snapshot() {
		for range c.N {
			elems = append(elems, c.Tuple.String())
		}
	}
	return "{" + strings.Join(elems, ", ") + "}"
}

// Parse reads a multiset from its braced source form, e.g.
// "{[1, 'A1', 0], [5, 'B1', 0]}": scanned in place into one run of m's cell
// chunk, then built in one pass (build). A literal that does not scan
// interns nothing.
func Parse(src string) (*Multiset, error) {
	m := New()
	ts, err := parseElems(src, &m.arena)
	if err != nil {
		return nil, err
	}
	m.build(ts, true)
	return m, nil
}

// parseElems reads the braced source form into cells carved from a and
// returns its elements in source order, each a capacity-clamped tuple over
// them; the first malformed element is the error.
func parseElems(src string, a *arena) ([]Tuple, error) {
	s := strings.TrimSpace(src)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("multiset: %q must be braced", src)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, nil
	}
	// Every field but an element's first follows a comma, and so does every
	// element but the first: the commas bound the cells, which therefore never
	// leave the run reserved here, and the brackets bound the elements.
	a.reserve(0, 0, strings.Count(inner, ",")+1)
	ts := make([]Tuple, 0, strings.Count(inner, "["))
	for rest, more := inner, true; more; {
		var elem string
		elem, rest, more = cutField(rest, true)
		if elem = strings.TrimSpace(elem); elem == "" {
			return nil, fmt.Errorf("multiset: empty element in %q", src)
		}
		if len(elem) < 2 || elem[0] != '[' || elem[len(elem)-1] != ']' {
			return nil, fmt.Errorf("multiset: tuple %q must be bracketed", elem)
		}
		fields := strings.TrimSpace(elem[1 : len(elem)-1])
		if fields == "" {
			return nil, fmt.Errorf("multiset: empty tuple %q", elem)
		}
		off := len(a.cells)
		for more := true; more; {
			var f string
			f, fields, more = cutField(fields, false)
			v, err := value.Parse(f)
			if err != nil {
				return nil, fmt.Errorf("multiset: tuple %q: %v", elem, err)
			}
			a.cells = append(a.cells, v)
		}
		ts = append(ts, Tuple(a.cells[off:len(a.cells):len(a.cells)]))
	}
	return ts, nil
}
