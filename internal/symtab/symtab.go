// Package symtab interns element labels into dense integer symbols.
//
// The Gamma runtime routes almost everything by label: the multiset's
// per-label candidate indexes behind the reaction matcher, and the label →
// reaction subscription index of the incremental scheduler. Labels are program
// constants — a handful of short strings fixed at compile/convert time — but
// the seed engine re-hashed and re-compared their bytes on every probe and
// every commit. Interning turns each distinct label into a small dense Sym
// once, so the hot paths do integer map lookups and integer comparisons.
//
// The table is process-global and append-only: symbols are never reused, so a
// Sym obtained anywhere stays valid for the life of the process, and two
// packages interning the same label always agree on its Sym. Interning is
// safe for concurrent use; the read path (SymOf, Name) is a shared-lock map
// hit and the hot runtime paths cache Syms at compile time so they do not
// touch the table at all.
package symtab

import (
	"strings"
	"sync"
)

// Sym is a dense interned symbol. The zero Sym (None) is reserved: it names
// no label and is what lookups report for "absent".
type Sym uint32

// None is the zero Sym: not a label.
const None Sym = 0

var table = struct {
	sync.RWMutex
	syms  map[string]Sym
	names []string // names[sym] == label; index 0 is the reserved None
}{
	syms:  make(map[string]Sym),
	names: []string{""},
}

// Intern returns the symbol for name, allocating one on first use. The empty
// string interns like any other label (it is a legal, if odd, element label
// and must not collide with None).
func Intern(name string) Sym {
	table.RLock()
	s, ok := table.syms[name]
	table.RUnlock()
	if ok {
		return s
	}
	table.Lock()
	defer table.Unlock()
	if s, ok := table.syms[name]; ok {
		return s
	}
	name = strings.Clone(name) // a label sliced from a request must not keep the request alive
	s = Sym(len(table.names))
	table.syms[name] = s
	table.names = append(table.names, name)
	return s
}

// SymOf returns the symbol for name without allocating one, and whether it
// exists. A miss proves no tuple or pattern has interned the label, which the
// multiset's string-keyed query wrappers use to answer "no entries" without
// polluting the table.
func SymOf(name string) (Sym, bool) {
	table.RLock()
	s, ok := table.syms[name]
	table.RUnlock()
	return s, ok
}

// Name returns the label interned as s, or "" for None or an unknown symbol.
func Name(s Sym) string {
	table.RLock()
	defer table.RUnlock()
	if int(s) < len(table.names) {
		return table.names[s]
	}
	return ""
}

// Len reports the number of interned symbols (excluding None).
func Len() int {
	table.RLock()
	defer table.RUnlock()
	return len(table.names) - 1
}
