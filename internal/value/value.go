// Package value implements the scalar value model shared by the Gamma and
// dataflow runtimes.
//
// Both computational models in the paper manipulate the same operand domain:
// the dataflow edges of Fig. 1 and Fig. 2 carry integers and booleans, and the
// multiset elements of the Gamma listings hold the same scalars in their first
// tuple field. Value is a small tagged union covering that domain (integers,
// floats, booleans and strings). It is a comparable struct, so it can be used
// directly as a map key — the multiset and the dataflow matching stores rely
// on that property.
//
// A float's identity is its bits: == tells -0 from +0 and holds between two
// NaNs, because Float stores one canonical NaN. That is the identity of the
// rendered form ("-0.0", "NaN") the multiset files elements by. Equal and
// Compare stay numeric: Equal(Float(-0), Float(0)) holds, and a NaN equals
// nothing there.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the variants of a Value.
type Kind uint8

// The supported scalar kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindBool
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	default:
		return "invalid"
	}
}

// Value is an immutable scalar. The zero Value has KindInvalid and is not a
// legal operand; runtimes treat it as "absent".
//
// The int, float and bool payloads share n (two's-complement bits,
// math.Float64bits, 0/1), so a Value is 32 bytes; only this package reads n.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// nanBits is the one NaN a Value holds, whatever NaN Float is given.
var nanBits = math.Float64bits(math.NaN())

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a floating-point Value. Every NaN is stored as the same bits.
func Float(f float64) Value {
	if f != f {
		return Value{kind: KindFloat, n: nanBits}
	}
	return Value{kind: KindFloat, n: math.Float64bits(f)}
}

// Bool returns a boolean Value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Str returns a string Value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the variant held by v.
func (v Value) Kind() Kind { return v.kind }

// i, f and b read n as the payload of kind int, float and bool.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }

// IsValid reports whether v holds any variant at all.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload. It panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s value %s", v.kind, v))
	}
	return v.i()
}

// AsFloat returns the numeric payload widened to float64. It panics unless v
// is numeric.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt:
		return float64(v.i())
	}
	panic(fmt.Sprintf("value: AsFloat on %s value %s", v.kind, v))
}

// AsBool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s value %s", v.kind, v))
	}
	return v.b()
}

// AsString returns the string payload. It panics unless Kind is KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s value %s", v.kind, v))
	}
	return v.s
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Truthy interprets v as a control signal the way the paper's steer reactions
// do: booleans are themselves, and numeric values follow the listings'
// `id2 == 1` convention (non-zero is true).
func (v Value) Truthy() (bool, error) {
	switch v.kind {
	case KindBool:
		return v.b(), nil
	case KindInt:
		return v.i() != 0, nil
	case KindFloat:
		return v.f() != 0, nil
	default:
		return false, fmt.Errorf("value: %s value %s has no truth value", v.kind, v)
	}
}

// String renders v in source form, which Parse reads back: integers and
// floats as literals (NaN, +Inf and -Inf by strconv's names), booleans as
// true/false, strings single-quoted in the paper's style — double-quoted when
// the text itself holds a single quote. Literals have no escapes, so a string
// holding both quote characters prints but does not parse back.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		f := v.f()
		s := strconv.FormatFloat(f, 'g', -1, 64)
		if f-f == 0 && !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case KindBool:
		return strconv.FormatBool(v.b())
	case KindString:
		if strings.IndexByte(v.s, '\'') >= 0 {
			return `"` + v.s + `"`
		}
		return "'" + v.s + "'"
	default:
		return "<invalid>"
	}
}

// Append appends exactly String()'s rendering of v to b and returns the
// extended slice. It is the allocation-free form used by the multiset's hot
// commit path to build tuple fingerprints into reusable buffers; the two
// renderings must stay byte-identical, which TestStringRendering pins.
func (v Value) Append(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, v.i(), 10)
	case KindFloat:
		n := len(b)
		f := v.f()
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
		if f-f != 0 { // NaN or ±Inf take no ".0": Parse would refuse it
			return b
		}
		for _, c := range b[n:] {
			if c == '.' || c == 'e' || c == 'E' {
				return b
			}
		}
		return append(b, '.', '0')
	case KindBool:
		return strconv.AppendBool(b, v.b())
	case KindString:
		q := byte('\'')
		if strings.IndexByte(v.s, q) >= 0 {
			q = '"'
		}
		b = append(b, q)
		b = append(b, v.s...)
		return append(b, q)
	default:
		return append(b, "<invalid>"...)
	}
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string { return fmt.Sprintf("value.Value(%s:%s)", v.kind, v.String()) }

// Parse reads a Value from its source form: an integer literal, a float
// literal, true/false, or a quoted string ('...' or "...").
func Parse(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Value{}, fmt.Errorf("value: empty literal")
	case s == "true":
		return Bool(true), nil
	case s == "false":
		return Bool(false), nil
	case len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0]:
		return Str(s[1 : len(s)-1]), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("value: cannot parse literal %q", s)
}
