package multiset

import (
	"math"
	"testing"

	"repro/internal/value"
)

// TestAppendKeyMatchesKey pins the byte-built fingerprint against Key() over
// every value kind and shape the commit path can see, including the float
// formatting corners (".0" suffix, exponents, negatives, NaN/Inf).
func TestAppendKeyMatchesKey(t *testing.T) {
	tuples := []Tuple{
		{value.Int(0)},
		{value.Int(-42)},
		{value.Float(2)},
		{value.Float(2.5)},
		{value.Float(1e21)},
		{value.Float(-0.0000001)},
		{value.Float(math.Inf(1))},
		{value.Float(math.NaN())},
		{value.Bool(true)},
		{value.Bool(false)},
		{value.Str("")},
		{value.Str("with \x1f separator byte")},
		{value.Str("stuffed \x1e\x1f\x1e\x1e bytes'\"")},
		{value.Value{}}, // invalid
		Pair(value.Int(7), "A1"),
		Elem(value.Float(3.5), "B2", 9),
		{value.Int(1), value.Str("x"), value.Int(2), value.Bool(true), value.Float(0.5)},
	}
	var buf []byte
	for _, tp := range tuples {
		buf = buf[:0]
		buf = tp.AppendKey(buf)
		if string(buf) != tp.Key() {
			t.Errorf("AppendKey(%v) = %q, Key() = %q", tp, buf, tp.Key())
		}
	}
}

// keyCollision is two distinct tuples whose keys were one before string
// fields stuffed 0x1e/0x1f: the first one's third field, holding both quote
// characters and the separator, rendered as the second one's last two fields.
const keyCollision = "{[1, 'L', 'a'\"\x1f4\"b''], [1, 'L', \"a'\", \"b'\"]}"

// TestKeyInjective: a string field cannot fake a field boundary, so two
// distinct tuples are two entries, and PrettyKey undoes the stuffing.
func TestKeyInjective(t *testing.T) {
	m, err := Parse(keyCollision)
	if err != nil {
		t.Fatal(err)
	}
	faked := Tuple{value.Int(1), value.Str("L"), value.Str("a'\"\x1f4\"b'")}
	split := Tuple{value.Int(1), value.Str("L"), value.Str("a'"), value.Str("b'")}
	if m.Len() != 2 || m.Distinct() != 2 || m.Count(faked) != 1 || m.Count(split) != 1 || faked.Key() == split.Key() {
		t.Fatalf("%s: Len %d, Distinct %d, counts %d and %d", m, m.Len(), m.Distinct(), m.Count(faked), m.Count(split))
	}
	if want := "{" + split.String() + ", " + faked.String() + "}"; m.String() != want {
		t.Fatalf("String() = %q, want %q", m, want)
	}
	for _, tp := range []Tuple{faked, split, {value.Str("\x1e"), value.Str("\x1e\x1f")}} {
		if got, want := PrettyKey(tp.Key()), tp.String(); got != want {
			t.Errorf("PrettyKey(%q) = %q, want %q", tp.Key(), got, want)
		}
	}
	if fields, ok := KeyFields("11\x1f4'a\x1e"); !ok || len(fields) != 2 || fields[1] != "4'a\x1e" {
		t.Errorf("a trailing lone 0x1e: fields %q, %v", fields, ok) // malformed: kept raw, not dropped
	}
}
