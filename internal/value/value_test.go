package value

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt: "int", KindFloat: "float", KindBool: "bool",
		KindString: "string", KindInvalid: "invalid", Kind(99): "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) = %#v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %#v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool(true) = %#v", v)
	}
	if v := Str("A1"); v.Kind() != KindString || v.AsString() != "A1" {
		t.Errorf("Str(A1) = %#v", v)
	}
	if (Value{}).IsValid() {
		t.Error("zero Value should be invalid")
	}
	if !Int(0).IsValid() {
		t.Error("Int(0) should be valid")
	}
}

func TestAsFloatPromotesInt(t *testing.T) {
	if got := Int(3).AsFloat(); got != 3.0 {
		t.Errorf("Int(3).AsFloat() = %v", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on bool", func() { Bool(true).AsInt() })
	mustPanic("AsBool on int", func() { Int(1).AsBool() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsFloat on string", func() { Str("x").AsFloat() })
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Bool(true), true}, {Bool(false), false},
		{Int(1), true}, {Int(0), false}, {Int(-7), true},
		{Float(0.5), true}, {Float(0), false},
	}
	for _, c := range cases {
		got, err := c.v.Truthy()
		if err != nil || got != c.want {
			t.Errorf("Truthy(%s) = %v, %v; want %v", c.v, got, err, c.want)
		}
	}
	if _, err := Str("x").Truthy(); err == nil {
		t.Error("Truthy on string should error")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Float(2), "2.0"},
		{Bool(true), "true"},
		{Str("B2"), "'B2'"},
		{Str(`say "hi"`), `'say "hi"'`},
		{Str("it's"), `"it's"`},
		{Float(math.NaN()), "NaN"},
		{Float(math.Inf(1)), "+Inf"},
		{Float(math.Inf(-1)), "-Inf"},
		{Float(1e21), "1e+21"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
		// Append is the allocation-free twin; the renderings must not drift.
		if got := string(c.v.Append([]byte("x"))); got != "x"+c.want {
			t.Errorf("Append(%#v) = %q, want %q", c.v, got, "x"+c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, v := range []Value{Int(0), Int(-12), Float(3.25), Bool(true), Bool(false), Str("C12"),
		Str("a'b"), Str(`a"b`), Str("'"), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxFloat64),
		Float(math.NaN()), Float(math.Copysign(0, -1))} {
		got, err := Parse(v.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", v.String(), err)
		}
		if got != v {
			t.Errorf("Parse(%q) = %#v, want %#v", v.String(), got, v)
		}
	}
}

// TestFloatIdentityIsBits pins what == means on floats: the bits, like the
// rendered form, so -0 and +0 differ and every NaN is the one canonical NaN;
// Equal and Compare stay numeric.
func TestFloatIdentityIsBits(t *testing.T) {
	negZero, posZero := Float(math.Copysign(0, -1)), Float(0)
	nan1, nan2 := Float(math.NaN()), Float(math.Float64frombits(math.Float64bits(math.NaN())^1<<63))
	if negZero == posZero || negZero.String() == posZero.String() {
		t.Errorf("-0 and +0: == %v, renderings %s, %s; want distinct", negZero == posZero, negZero, posZero)
	}
	if !Equal(negZero, posZero) {
		t.Error("Equal(-0, +0) = false, want numeric equality")
	}
	if c, err := Compare(negZero, posZero); c != 0 || err != nil {
		t.Errorf("Compare(-0, +0) = %d, %v, want 0", c, err)
	}
	if nan1 != nan2 || nan1.String() != nan2.String() {
		t.Errorf("NaNs of different bits: == %v, renderings %s, %s; want one NaN", nan1 == nan2, nan1, nan2)
	}
	if Equal(nan1, nan2) {
		t.Error("Equal(NaN, NaN) = true, want numeric inequality")
	}
	inf, ninf := Float(math.Inf(1)), Float(math.Inf(-1))
	if inf != Float(math.Inf(1)) || inf == ninf || Equal(inf, ninf) {
		t.Errorf("±Inf identity: +Inf == +Inf %v, +Inf == -Inf %v", inf == Float(math.Inf(1)), inf == ninf)
	}
}

// TestValueSize pins the layout: a kind, one 64-bit payload and a string. Every
// tuple cell, token and matcher binding is a copy of it.
func TestValueSize(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d B, want 32", size)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "  ", "abc", "1..2", "'unterminated"} {
		if v, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %v, want error", s, v)
		}
	}
}

func TestParseDoubleQuoted(t *testing.T) {
	v, err := Parse(`"hello"`)
	if err != nil || v != Str("hello") {
		t.Errorf("Parse(\"hello\") = %v, %v", v, err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on garbage should panic")
		}
	}()
	MustParse("@@")
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   string
		a, b Value
		want Value
	}{
		{"+", Int(1), Int(5), Int(6)},
		{"-", Int(6), Int(6), Int(0)},
		{"*", Int(3), Int(2), Int(6)},
		{"/", Int(7), Int(2), Int(3)},
		{"%", Int(7), Int(2), Int(1)},
		{"+", Float(1.5), Int(1), Float(2.5)},
		{"-", Int(1), Float(0.5), Float(0.5)},
		{"*", Float(2), Float(4), Float(8)},
		{"/", Float(1), Float(4), Float(0.25)},
		{"+", Str("a"), Str("b"), Str("ab")},
	}
	for _, c := range cases {
		got, err := Binary(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("%s %s %s: %v", c.a, c.op, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s %s %s = %s, want %s", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("int division by zero should error")
	}
	if _, err := Div(Float(1), Float(0)); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := Mod(Int(1), Int(0)); err == nil {
		t.Error("modulo by zero should error")
	}
	if _, err := Mod(Float(1), Int(2)); err == nil {
		t.Error("float modulo should error")
	}
	if _, err := Add(Int(1), Bool(true)); err == nil {
		t.Error("int+bool should error")
	}
	if _, err := Sub(Str("a"), Str("b")); err == nil {
		t.Error("string subtraction should error")
	}
	var te *TypeError
	_, err := Mul(Str("a"), Int(2))
	if err == nil {
		t.Fatal("string*int should error")
	}
	if e, ok := err.(*TypeError); ok {
		te = e
	} else {
		t.Fatalf("want *TypeError, got %T", err)
	}
	if te.Error() == "" {
		t.Error("TypeError message empty")
	}
}

func TestUnary(t *testing.T) {
	if got, _ := Unary("-", Int(4)); got != Int(-4) {
		t.Errorf("-4 = %s", got)
	}
	if got, _ := Unary("-", Float(1.5)); got != Float(-1.5) {
		t.Errorf("-1.5 = %s", got)
	}
	if got, _ := Unary("!", Bool(false)); got != Bool(true) {
		t.Errorf("!false = %s", got)
	}
	if got, _ := Unary("not", Int(0)); got != Bool(true) {
		t.Errorf("not 0 = %s", got)
	}
	if got, _ := Unary("+", Int(3)); got != Int(3) {
		t.Errorf("+3 = %s", got)
	}
	for _, bad := range []struct {
		op string
		v  Value
	}{
		{"-", Str("x")}, {"!", Str("x")}, {"+", Bool(true)}, {"??", Int(1)},
	} {
		if _, err := Unary(bad.op, bad.v); err == nil {
			t.Errorf("Unary(%q, %s) should error", bad.op, bad.v)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   string
		a, b Value
		want bool
	}{
		{"==", Int(2), Int(2), true},
		{"==", Int(2), Float(2), true},
		{"==", Str("a"), Str("a"), true},
		{"==", Int(2), Str("2"), false},
		{"!=", Int(2), Str("2"), true},
		{"!=", Int(2), Int(3), true},
		{"<", Int(1), Int(2), true},
		{"<=", Int(2), Int(2), true},
		{">", Float(2.5), Int(2), true},
		{">=", Int(2), Int(3), false},
		{"<", Str("a"), Str("b"), true},
		{">", Bool(true), Bool(false), true},
		{"<", Bool(false), Bool(true), true},
	}
	for _, c := range cases {
		got, err := Binary(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("%s %s %s: %v", c.a, c.op, c.b, err)
			continue
		}
		if got != Bool(c.want) {
			t.Errorf("%s %s %s = %s, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if _, err := Compare(Str("a"), Int(1)); err == nil {
		t.Error("compare string vs int should error")
	}
	if _, err := Binary("<", Bool(true), Int(1)); err == nil {
		t.Error("ordering bool vs int should error")
	}
}

func TestLogical(t *testing.T) {
	if got, _ := Binary("and", Bool(true), Int(1)); got != Bool(true) {
		t.Errorf("true and 1 = %s", got)
	}
	if got, _ := Binary("or", Bool(false), Int(0)); got != Bool(false) {
		t.Errorf("false or 0 = %s", got)
	}
	if got, _ := Binary("||", Bool(false), Bool(true)); got != Bool(true) {
		t.Errorf("false || true = %s", got)
	}
	if got, _ := Binary("&&", Int(1), Int(0)); got != Bool(false) {
		t.Errorf("1 && 0 = %s", got)
	}
	if _, err := And(Str("x"), Bool(true)); err == nil {
		t.Error("and on string should error")
	}
	if _, err := And(Bool(true), Str("x")); err == nil {
		t.Error("and on string rhs should error")
	}
	if _, err := Or(Str("x"), Bool(true)); err == nil {
		t.Error("or on string should error")
	}
	if _, err := Or(Bool(false), Str("x")); err == nil {
		t.Error("or on string rhs should error")
	}
}

func TestBinaryUnknownOp(t *testing.T) {
	if _, err := Binary("<=>", Int(1), Int(2)); err == nil {
		t.Error("unknown operator should error")
	}
}

// Property: integer addition via Value agrees with native int64 addition.
func TestQuickAddCommutes(t *testing.T) {
	f := func(a, b int32) bool {
		x, err1 := Add(Int(int64(a)), Int(int64(b)))
		y, err2 := Add(Int(int64(b)), Int(int64(a)))
		return err1 == nil && err2 == nil && x == y && x.AsInt() == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric for integers.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(Int(a), Int(b))
		c2, err2 := Compare(Int(b), Int(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Parse(String(v)) is the identity on integer values.
func TestQuickParseStringIdentity(t *testing.T) {
	f := func(a int64) bool {
		v := Int(a)
		got, err := Parse(v.String())
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(s string) Value {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}
