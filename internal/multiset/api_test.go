package multiset

import "repro/internal/symtab"

// The queries below serve only the tests.

// Key reads the element's key; call it only under the issuing View.
func (r Ref) Key() string { return r.e.key }

// Remove deletes one occurrence of t, reporting whether one existed.
func (m *Multiset) Remove(t Tuple) bool { return m.TryRemoveAll([]Tuple{t}) }

// Distinct returns the number of distinct tuples.
func (m *Multiset) Distinct() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.bare.len()
	for _, li := range m.labels {
		n += li.all.len()
	}
	return n
}

// BySym returns the distinct tuples labeled sym, with their multiplicities
// and cached keys, in ascending key order.
func (m *Multiset) BySym(sym symtab.Sym) (out []Counted) {
	m.IterSym(sym, collect(&out))
	return out
}

// BySymTag is BySym over the tuples that also carry index tag tag.
func (m *Multiset) BySymTag(sym symtab.Sym, tag int64) (out []Counted) {
	m.IterSymTag(sym, tag, collect(&out))
	return out
}

// ByLabelTag is BySymTag by label string.
func (m *Multiset) ByLabelTag(label string, tag int64) []Counted {
	if sym, ok := symtab.SymOf(label); ok {
		return m.BySymTag(sym, tag)
	}
	return nil
}

// collect returns an Iter callback that appends what it is given to out.
func collect(out *[]Counted) func(t Tuple, n int, key string) bool {
	return func(t Tuple, n int, key string) bool {
		*out = append(*out, Counted{Tuple: t, N: n, Key: key})
		return true
	}
}
