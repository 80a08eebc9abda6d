package multiset

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/symtab"
	"repro/internal/value"
)

// NoLabelSym is the delta marker ApplyDelta reports for produced tuples that
// carry no string label field. It cannot collide unsoundly with a real label
// extracted by Tuple.Label: a real "\x00" label interns to the same symbol
// and reports itself, which still wakes a superset of the reactions that
// could match — see gamma's subscription index.
var NoLabelSym = symtab.Intern("\x00")

// entry is one distinct tuple with its multiplicity. key caches Tuple.Key()
// (the ordering of every list), li is the label index whose all list is the
// entry's home — nil for an unlabeled tuple, whose home is the bare list — and
// tag caches the index tag, so unlinking re-derives and looks up nothing. owner
// and gen are what make a Ref checkable: owner is the id of the Multiset the
// entry is linked in (0 on a freelist), and gen is bumped every time the
// struct is unlinked. Both fit the padding: the struct is a hot allocation.
type entry struct {
	tuple  Tuple
	key    string
	li     *labelIndex
	count  int
	tag    int64
	gen    uint32
	owner  uint32
	hasTag bool
}

// Ref is an element handle: what a View hands the matcher, and what a Delta
// carries back to the commit, in place of the key string. It is valid under
// the View that issued it, and afterwards only in a commit on the same
// Multiset, which claims it under the write lock: a Ref whose entry was
// consumed since (even if the struct was re-issued for another tuple — gen
// moved) or is another Multiset's (owner differs) fails its claim, never aliases.
//
// at is where the issuing walk met the entry, packed into what was padding (a
// Ref is 16 bytes): the commit unlinks there after one check, and searches by
// key only when the check fails. It is not part of the handle's identity —
// one entry met through two walks carries two slots (see Same).
type Ref struct {
	e   *entry
	gen uint32
	at  slot
}

// Tuple and Count read the element; call them only under the issuing View.
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
// bare when it carries no label. Every list ascends by key and no hash of keys
// stands beside them: the binary search that finds where a tuple belongs is
// what finds it already there (locate), so produce, the key-addressed front
// door and unlink resolve a key the same way, in a list that for an Algorithm
// 1 image holds 0–2 entries. Enumeration is an in-order walk of a maintained
// list; add and unlink are the only code that touches the lists.
type Multiset struct {
	id   uint32 // process-unique, never 0: what binds a Ref to its Multiset
	mu   sync.RWMutex
	bare elist
	// labels ascends by symbol — found by binary search, and the order of a
	// whole-multiset walk (eachRot), which so depends on symbol numbering.
	labels []*labelIndex
	// free recycles entry structs across unlink/add cycles (bounded by
	// freeMax), zeroed except gen. Only the struct is recycled: tuple backings
	// and key strings escape to searchers and traces.
	free []*entry
	// arena chunk-allocates entries, key strings and tuple-cell copies for
	// freelist misses (see arena.go) — the commit path's hot allocations.
	arena   arena
	scratch deltaScratch // commit's bookkeeping, reused under the write lock
	size    atomic.Int64 // total element count incl. multiplicity
	// commitSeq numbers committed writes (commit's seq). A sequence number
	// taken while the writer still holds the lock is a valid linearization of
	// the execution: a firing that consumes another firing's product takes the
	// lock after the producer released it, so the producer's number is always
	// the smaller one. Replay recorders sort on it to turn a nondeterministic
	// parallel run into a sequential schedule. It is the multiset's own seq, or
	// in a part of a Partition the seq of the multiset that was split.
	commitSeq *atomic.Uint64
	seq       atomic.Uint64
}

// New returns an empty multiset, optionally pre-populated with tuples.
func New(tuples ...Tuple) *Multiset {
	m := &Multiset{id: lastID.Add(1)}
	m.commitSeq = &m.seq
	for _, t := range tuples {
		m.Add(t)
	}
	return m
}

// labelSymOf interns the tuple's label, or returns symtab.None when t has no
// string label field: the insert side's resolution.
func labelSymOf(t Tuple) symtab.Sym {
	if label, ok := t.Label(); ok {
		return symtab.Intern(label)
	}
	return symtab.None
}

// knownSymOf is the query side's: it resolves t's label without interning it.
// A label nobody interned is carried by no tuple of any multiset, so the miss
// (ok false) answers "absent" and leaves the process-global symbol table —
// which only grows — out of reach of whoever chooses the queries.
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
	m.add(t, key, sym, n)
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
// and its label index (nil for bare). A label's index is made on its first
// insert; without create an unseen label has no home.
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
// is key and label sym: one search of t's home list finds the tuple there (its
// count grows, no list does) or where a new entry goes. The key string is
// materialized only for a new entry.
func (m *Multiset) add(t Tuple, key []byte, sym symtab.Sym, n int) {
	home, li := m.home(sym, true)
	if at, e := locate(home, key); e != nil {
		e.count += n
	} else {
		m.file(home, li, at, m.arena.cloneTuple(t), m.arena.internKey(key), n)
	}
}

// file links a new entry for t and key — arena carves, or the ones Clone
// shares — at position at of home, the list of li, and in li's buckets.
func (m *Multiset) file(home *elist, li *labelIndex, at epos, t Tuple, key string, n int) {
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
}

// unlink removes e from its home list — at the slot hint if e is still there
// (seek) — and its bucket, with the write lock held, and retires the struct:
// gen moves, so outstanding Refs fail their claim, and the rest is zeroed
// (dropping the tuple and key) before it joins the freelist.
func (m *Multiset) unlink(e *entry, hint slot) {
	if li := e.li; li == nil {
		m.bare.removeAt(m.bare.seek(e, hint))
	} else {
		li.all.removeAt(li.all.seek(e, hint))
		li.unlinked(e)
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

// deltaScratch holds the per-commit scratch of the commit core so the hot
// path performs no bookkeeping allocations: the claimed handles, the label
// symbols of the produce side, the byte buffer a key is rendered into, and
// the annihilation marks.
type deltaScratch struct {
	cents []Ref
	psyms []symtab.Sym
	kbuf  []byte
	ccan  []bool // annihilation marks
	pcan  []bool
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

// commit is the commit core under both doors — View.Commit inside a write
// session and the key-addressed ApplyDelta — entered with the write lock held:
// one firing's all-or-nothing claim, then its consume and produce. It reports
// whether the claim held, appends the deduplicated label symbols of the
// produced tuples to syms, and when numbered draws the firing's commit
// sequence number (see Multiset.commitSeq). A failed claim modifies nothing.
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

// claim resolves the firing's consume side to entries (d.cents) and verifies
// that it is fully available; nothing is modified. A handle resolves to its
// entry if that is still the element it was issued for, in this multiset; a
// key by searching its home list, its label looked up, never interned
// (knownSymOf). Duplicates within the firing require that many occurrences.
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

// apply commits the firing whose claim just passed — the one place entries
// are unlinked and added by a commit: the claimed entries (d.cents) lose one
// occurrence each and the produce tuples are inserted, each under the label
// symbol PSyms names where the caller resolved it, else the tuple's own. A
// produce tuple equal to a claimed entry's annihilates with it — the net
// effect on every count is zero, so neither side touches the lists, and the
// product's key is never rendered. The claim was checked gross, so observable
// semantics stay exactly remove-then-insert. Entries are unlinked last claim
// first, at their slot hints (unlink): a firing that consumes two neighbours
// of one chunk in walk order removes the later one first, and the earlier
// one's slot still holds it.
func (m *Multiset) apply(dl *Delta, d *deltaScratch) {
	d.psyms, d.ccan, d.pcan = d.psyms[:0], d.ccan[:0], d.pcan[:0]
	for range d.cents {
		d.ccan = append(d.ccan, false)
	}
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
			m.add(t, d.kbuf, d.psyms[pi], 1)
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

// ApplyDelta is one reaction firing's consume+produce as a single commit: it
// atomically removes one occurrence of every tuple in consume (all-or-nothing,
// duplicates requiring that many occurrences) and, on success, inserts every
// tuple in produce, under the write lock. It is the key-addressed front door
// of the commit (replay, tests and tools that hold tuples, not handles): keys
// are resolved to entries under the lock and the same core runs as for the
// matcher's handle-addressed deltas (Delta.Refs, View.Commit). ckeys, when
// non-nil, must hold Key() of each consume tuple, so the commit does not
// rebuild them.
//
// On success it appends the deduplicated label symbols of the produced tuples
// to syms (NoLabelSym standing in for unlabeled tuples) and returns the
// extended slice — the delta that drives the incremental reaction scheduler.
// On a failed claim nothing is modified and syms is returned unchanged.
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

// ByLabel returns the distinct tuples labeled label, with their
// multiplicities and cached keys, in ascending key order. The slice is a
// snapshot. A label that was never interned has no entries anywhere, so the
// miss answers without touching the symbol table.
func (m *Multiset) ByLabel(label string) (out []Counted) {
	if sym, ok := symtab.SymOf(label); ok {
		m.IterSym(sym, func(t Tuple, n int, key string) bool {
			out = append(out, Counted{Tuple: t, N: n, Key: key})
			return true
		})
	}
	return out
}

// IterSym calls fn once per distinct tuple whose label symbol equals sym, in
// ascending key order, passing the entry's cached key fingerprint, without
// copying anything. It is a one-shot View (see LockRead): the read lock is
// held for the whole iteration, so fn must not mutate the multiset. A caller
// enumerating more than once per consistent state holds one View.
func (m *Multiset) IterSym(sym symtab.Sym, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	v.EachSym(sym, 0, unref(fn))
}

// IterSymTag is IterSym over the (label symbol, tag) index.
func (m *Multiset) IterSymTag(sym symtab.Sym, tag int64, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	v.EachSymTag(sym, tag, 0, unref(fn))
}

// unref adapts a tuple callback to the View's handle callback.
func unref(fn func(t Tuple, n int, key string) bool) func(Ref) bool {
	return func(r Ref) bool { return fn(r.e.tuple, r.e.count, r.e.key) }
}

// IterAllRot calls fn once per distinct tuple of the whole multiset with the
// entry's cached key, list by list, each list from a position derived from rot
// (View.EachAll). The walk is exhaustive and, for a fixed rot and multiset
// state, deterministic; only the starting point moves (why the matcher wants
// that: gamma's eachCandidate). A one-shot View, with IterSym's locking
// contract.
func (m *Multiset) IterAllRot(rot uint64, fn func(t Tuple, n int, key string) bool) {
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	v.EachAll(rot, unref(fn))
}

// Counted pairs a distinct tuple with its multiplicity and, when it comes
// from a maintained index, the cached Tuple.Key fingerprint.
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
// list by list from what the entries cache — the tuple and key, shared (arena
// carves are write-once), and the home list — so nothing is copied, rendered,
// interned or searched for: a walk arrives ascending and every entry goes at
// its list's end. The source is read-locked for the walk, like ForEach.
func (m *Multiset) Clone() *Multiset {
	c := New() // not shared yet: needs no lock
	m.mu.RLock()
	defer m.mu.RUnlock()
	var from, li *labelIndex // the source label being walked (nil: bare) and its copy
	home := &c.bare
	m.eachRot(0, func(e *entry, _ slot) bool {
		if e.li != from {
			from = e.li
			home, li = c.home(from.sym, true)
		}
		c.file(home, li, home.end(), e.tuple, e.key, e.count)
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
	m := New()
	if err := parseElems(src, m.Add); err != nil {
		return nil, err
	}
	return m, nil
}

// parseElems reads the braced source form and hands add each element, in
// source order.
func parseElems(src string, add func(Tuple)) error {
	s := strings.TrimSpace(src)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return fmt.Errorf("multiset: %q must be braced", src)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil
	}
	// Split on commas outside brackets and, like cutField, outside quotes.
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
		add(t)
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
				return err
			}
			start = i + 1
		}
	}
	return flush(len(inner))
}
