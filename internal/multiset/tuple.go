// Package multiset implements the Gamma model's single database: a counted,
// concurrent multiset of tuples.
//
// Elements follow the paper's conventions: a bare scalar is a 1-tuple, the
// Example-1 elements are pairs [value, label], and the Example-2 elements are
// triplets [value, label, tag], the tag a dynamic-dataflow iteration number.
// Elements are filed by label, so the matcher walks one short list per
// pattern, and a label that outgrows a scan is indexed by tag as well.
//
// One reader/writer lock guards the whole structure: one writer at a time —
// the sequential engine's write session (View), or a caller of Add or
// ApplyDelta — and parallelism is private sub-solutions (View.Partition). A
// commit is one firing: an all-or-nothing claim, then its products.
package multiset

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/value"
)

// Tuple is one multiset element: an ordered, fixed-arity sequence of scalars.
// Tuples are treated as immutable; callers must not mutate a Tuple after
// adding it to a Multiset.
type Tuple []value.Value

// New1 returns a 1-tuple holding a bare scalar.
func New1(v value.Value) Tuple { return Tuple{v} }

// Pair returns the paper's Example-1 element shape [value, label].
func Pair(v value.Value, label string) Tuple { return Tuple{v, value.Str(label)} }

// Elem returns the paper's Example-2 element shape [value, label, tag].
func Elem(v value.Value, label string, tag int64) Tuple {
	return Tuple{v, value.Str(label), value.Int(tag)}
}

// IntElem is Elem with an integer payload, the common case in the listings.
func IntElem(v int64, label string, tag int64) Tuple { return Elem(value.Int(v), label, tag) }

// Value returns the first field, the element's data payload.
func (t Tuple) Value() value.Value {
	if len(t) == 0 {
		return value.Value{}
	}
	return t[0]
}

// Label returns the second field when it is a string — the edge-label
// convention of the paper — and reports whether it exists.
func (t Tuple) Label() (string, bool) {
	if len(t) >= 2 && t[1].Kind() == value.KindString {
		return t[1].AsString(), true
	}
	return "", false
}

// Tag returns the third field when it is an integer — the iteration-tag
// convention of the paper — and reports whether it exists.
func (t Tuple) Tag() (int64, bool) {
	if len(t) >= 3 && t[2].Kind() == value.KindInt {
		return t[2].AsInt(), true
	}
	return 0, false
}

// Equal reports field-wise equality (exact, not numeric-promoting: a tuple
// holding Int(2) is a different element from one holding Float(2.0), exactly
// as two distinct molecules). It agrees with Key: floats compare by bits, so
// -0 and +0 are different elements and every NaN is the same one.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Key returns a canonical fingerprint of the tuple, unique per distinct
// tuple: what the multiset orders and finds its entries by.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends Key()'s fingerprint of t to b — the allocation-free form
// the commit path searches by. Fields are joined by 0x1f, each a kind byte
// (Int(2) "2" is not Float(2.0) "2.0") and its source rendering; inside a
// string field 0x1e and 0x1f are stuffed behind a 0x1e, so a string cannot
// fake a field boundary. Keys without those bytes read as plain renderings.
func (t Tuple) AppendKey(b []byte) []byte {
	for i, v := range t {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, byte('0'+v.Kind()))
		n := len(b)
		b = v.Append(b)
		for j := n; v.Kind() == value.KindString && j < len(b); j++ {
			if b[j]|1 == 0x1f { // 0x1e or 0x1f
				b = slices.Insert(b, j, 0x1e)
				j++
			}
		}
	}
	return b
}

// KeyFields splits a Tuple.Key into its fields, each a kind byte and the
// value's source rendering, un-stuffed (see AppendKey); ok is false for a key
// that is empty or has an empty field. What a key's reader — replay, the
// provenance DOT — needs to invert it.
func KeyFields(key string) (fields []string, ok bool) {
	start, stuffed := 0, false
	for i := 0; i <= len(key); i++ {
		switch {
		case i+1 < len(key) && key[i] == 0x1e:
			i, stuffed = i+1, true
		case i < len(key) && key[i] != 0x1f:
		case i == start:
			return nil, false
		default:
			f := key[start:i]
			if stuffed {
				f = unstuff.Replace(f)
			}
			fields, start, stuffed = append(fields, f), i+1, false
		}
	}
	return fields, true
}

var unstuff = strings.NewReplacer("\x1e\x1e", "\x1e", "\x1e\x1f", "\x1f")

// PrettyKey renders a Tuple.Key back into the paper's bracketed tuple form
// ("[1, 'A1']"): its fields stripped of their kind byte. Strings that are not
// well-formed keys are returned unchanged.
func PrettyKey(key string) string {
	fields, ok := KeyFields(key)
	if !ok {
		return key
	}
	for i, f := range fields {
		fields[i] = f[1:]
	}
	return "[" + strings.Join(fields, ", ") + "]"
}

// String renders the tuple in the paper's bracketed style: [1, 'A1', 0].
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Compare orders tuples lexicographically, field by field by kind and then
// string form, a prefix first; used only to produce deterministic snapshots
// for tests and printing.
func (t Tuple) Compare(u Tuple) int {
	for i := range min(len(t), len(u)) {
		if c := cmp.Or(cmp.Compare(t[i].Kind(), u[i].Kind()), strings.Compare(t[i].String(), u[i].String())); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(u))
}

// cutField cuts s at its first comma outside quotes and, for an element of
// a multiset (nested), outside brackets, reporting whether there was one.
func cutField(s string, nested bool) (field, rest string, found bool) {
	depth, quote := 0, byte(0)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case nested && c == '[':
			depth++
		case nested && c == ']':
			depth--
		case c == ',' && depth == 0:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}
