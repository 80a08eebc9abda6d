package expr

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func evalInt(t *testing.T, src string, env Env) int64 {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	if v.Kind() != value.KindInt {
		t.Fatalf("Eval(%q) = %s, want int", src, v)
	}
	return v.AsInt()
}

func evalBoolT(t *testing.T, src string, env Env) bool {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	b, err := EvalBool(e, env)
	if err != nil {
		t.Fatalf("EvalBool(%q): %v", src, err)
	}
	return b
}

func TestArithmeticEvaluation(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 5", 6},
		{"(1 + 5) - (3 * 2)", 0}, // Example 1 of the paper: m = (x+y)-(k*j)
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"-4 + 1", -3},
		{"- (4 + 1)", -5},
		{"2 * -3", -6},
		{"1 - 2 - 3", -4}, // left associativity
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"abs(-9)", 9},
		{"abs(9)", 9},
	}
	for _, c := range cases {
		if got := evalInt(t, c.src, EmptyEnv); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestVariableEvaluation(t *testing.T) {
	env := MapEnv{"x": value.Int(1), "y": value.Int(5), "k": value.Int(3), "j": value.Int(2)}
	if got := evalInt(t, "(x + y) - (k * j)", env); got != 0 {
		t.Errorf("example 1 = %d, want 0", got)
	}
	if got := evalInt(t, "x + y + k + j", env); got != 11 {
		t.Errorf("sum = %d, want 11", got)
	}
}

func TestUnboundVariable(t *testing.T) {
	_, err := Eval(Var{Name: "zzz"}, EmptyEnv)
	var ue *UnboundVarError
	if err == nil {
		t.Fatal("expected error")
	}
	if e, ok := err.(*UnboundVarError); ok {
		ue = e
	} else {
		t.Fatalf("want *UnboundVarError, got %T", err)
	}
	if ue.Name != "zzz" || !strings.Contains(ue.Error(), "zzz") {
		t.Errorf("unexpected error %v", ue)
	}
}

func TestBooleanEvaluation(t *testing.T) {
	env := MapEnv{"x": value.Str("A1"), "id1": value.Int(3), "id2": value.Int(1), "v": value.Int(0)}
	cases := []struct {
		src  string
		want bool
	}{
		// The reaction conditions from the paper's listings.
		{"(x == 'A1') or (x == 'A11')", true},
		{"(x == 'B1') or (x == 'B11')", false},
		{"id2 == 1", true},
		{"id1 > 0", true},
		{"x < 'B'", true},
		{"id1 >= 3 and id2 <= 1", true},
		{"!(id1 == 3)", false},
		{"not (id1 == 4)", true},
		{"true or (1/0 == 1)", true},    // short-circuit avoids division by zero
		{"false and (1/0 == 1)", false}, // short-circuit avoids division by zero
		{"true && false", false},
		{"true || false", true},
	}
	for _, c := range cases {
		if got := evalBoolT(t, c.src, env); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestShortCircuitErrors(t *testing.T) {
	env := MapEnv{"s": value.Str("x")}
	for _, src := range []string{"s and true", "true and s", "s or true", "false or s"} {
		e := MustParse(src)
		if _, err := Eval(e, env); err == nil {
			t.Errorf("%q should error on non-truthy operand", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, src := range []string{"1/0", "1%0", "'a' - 'b'", "abs('x')", "abs(1,2)", "min()", "nosuchfn(1)"} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Eval(e, EmptyEnv); err == nil {
			t.Errorf("Eval(%q) should error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "1 +", "(1", "1)", "min(1", "min(1,", "1 @ 2", "'abc", "= 1", "[1]",
	} {
		if e, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %v, want error", src, e)
		}
	}
}

func TestParsePrecedenceShape(t *testing.T) {
	e := MustParse("a + b * c == d or e")
	// Expect: ((a + (b*c)) == d) or e
	or, ok := e.(Binary)
	if !ok || or.Op != "or" {
		t.Fatalf("top = %#v, want or", e)
	}
	eq, ok := or.L.(Binary)
	if !ok || eq.Op != "==" {
		t.Fatalf("or.L = %#v, want ==", or.L)
	}
	add, ok := eq.L.(Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("eq.L = %#v, want +", eq.L)
	}
	mul, ok := add.R.(Binary)
	if !ok || mul.Op != "*" {
		t.Fatalf("add.R = %#v, want *", add.R)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"id1 + id2",
		"(id1 + id2) - id3 * id4",
		"(x == 'A1') or (x == 'A11')",
		"-(a + b)",
		"!(a and b)",
		"min(a, b, 3)",
		"a - (b - c)",
		"a % b / c",
		"1.5 * f",
	}
	for _, src := range srcs {
		e1 := MustParse(src)
		printed := e1.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if !Equal(e1, e2) {
			t.Errorf("round trip changed %q: printed %q reparsed %s", src, printed, e2)
		}
	}
}

func TestFreeVars(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"1 + 2", nil},
		{"id1 + id2", []string{"id1", "id2"}},
		{"(x == 'A1') or (x == 'A11')", []string{"x"}},
		{"min(a, b) + a - !c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		got := FreeVars(MustParse(c.src))
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("FreeVars(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestSubst(t *testing.T) {
	e := MustParse("id1 + id2 * id1")
	got := Subst(e, map[string]Expr{"id1": MustParse("a - b")})
	want := MustParse("(a - b) + id2 * (a - b)")
	if !Equal(got, want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
	// Substitution into calls and unaries.
	e2 := MustParse("min(x, -x)")
	got2 := Subst(e2, map[string]Expr{"x": Lit{Val: value.Int(7)}})
	if v, err := Eval(got2, EmptyEnv); err != nil || v != value.Int(-7) {
		t.Errorf("Subst into call = %s (%v), want -7", got2, err)
	}
	// Unbound names stay.
	got3 := Subst(MustParse("q + 1"), map[string]Expr{"x": Lit{Val: value.Int(1)}})
	if !Equal(got3, MustParse("q + 1")) {
		t.Errorf("Subst should leave unbound vars: %s", got3)
	}
}

func TestFold(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"1 + 2 * 3", "7"},
		{"1 + x", "1 + x"},
		{"(2 + 3) * x", "5 * x"},
		{"min(4, 9) + x", "4 + x"},
		{"-(2 + 3)", "-5"},
		{"1 / 0", "1 / 0"}, // fold must not swallow errors
		{"'a' + 'b'", "'ab'"},
		{"2 < 3", "true"},
	}
	for _, c := range cases {
		got := Fold(MustParse(c.src))
		want := MustParse(c.want)
		if !Equal(got, want) {
			t.Errorf("Fold(%q) = %s, want %s", c.src, got, want)
		}
	}
}

func TestEqualDistinguishes(t *testing.T) {
	pairs := [][2]string{
		{"a", "b"},
		{"1", "2"},
		{"a + b", "a - b"},
		{"a + b", "a"},
		{"-a", "!a"},
		{"min(a)", "max(a)"},
		{"min(a)", "min(a, b)"},
		{"min(a, b)", "min(a, c)"},
	}
	for _, p := range pairs {
		if Equal(MustParse(p[0]), MustParse(p[1])) {
			t.Errorf("Equal(%q, %q) should be false", p[0], p[1])
		}
	}
	if Equal(MustParse("a"), nil) {
		t.Error("Equal(a, nil) should be false")
	}
}

func TestLexerPositionsAndComments(t *testing.T) {
	toks, err := LexAll("a + b # comment\n  c // another\nd")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	if !reflect.DeepEqual(texts, []string{"a", "+", "b", "c", "d"}) {
		t.Fatalf("tokens = %v", texts)
	}
	if toks[3].Line != 2 || toks[4].Line != 3 {
		t.Errorf("line tracking wrong: %+v", toks)
	}
}

func TestLexerKeepNewlines(t *testing.T) {
	l := NewLexer("a\nb")
	l.KeepNewlines = true
	var kinds []TokenKind
	for {
		tk, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, tk.Kind)
		if tk.Kind == TokEOF {
			break
		}
	}
	want := []TokenKind{TokIdent, TokNewline, TokIdent, TokEOF}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
}

func TestLexerPunctuation(t *testing.T) {
	toks, err := LexAll("[x, 'A1'] | {y} ; ==")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokLBrack, TokIdent, TokComma, TokString, TokRBrack,
		TokPipe, TokLBrace, TokIdent, TokRBrace, TokSemi, TokOp}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i := range want {
		if toks[i].Kind != want[i] {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'abc", "@", "$x"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) should error", src)
		}
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k := TokEOF; k <= TokNewline; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if TokenKind(200).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}

// Property: printing then reparsing preserves evaluation on random integer
// expression trees.
func TestQuickPrintParseEval(t *testing.T) {
	type node struct {
		A, B int16
		Op   uint8
	}
	ops := []string{"+", "-", "*"}
	f := func(ns []node) bool {
		var e Expr = Lit{Val: value.Int(1)}
		for _, n := range ns {
			e = Binary{Op: ops[int(n.Op)%len(ops)], L: e, R: Lit{Val: value.Int(int64(n.A) % 100)}}
		}
		v1, err := Eval(e, EmptyEnv)
		if err != nil {
			return true // skip error trees
		}
		e2, err := Parse(e.String())
		if err != nil {
			return false
		}
		v2, err := Eval(e2, EmptyEnv)
		return err == nil && v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Fold preserves evaluation.
func TestQuickFoldPreservesEval(t *testing.T) {
	f := func(a, b, c int16) bool {
		e := Binary{Op: "+", L: Binary{Op: "*", L: Lit{Val: value.Int(int64(a))}, R: Lit{Val: value.Int(int64(b))}},
			R: Binary{Op: "-", L: Var{Name: "x"}, R: Lit{Val: value.Int(int64(c))}}}
		env := MapEnv{"x": value.Int(int64(b))}
		v1, err1 := Eval(e, env)
		v2, err2 := Eval(Fold(e), env)
		return err1 == nil && err2 == nil && v1 == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// LexAll tokenizes the whole input, excluding the trailing EOF token.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
