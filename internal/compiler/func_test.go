package compiler

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/value"
)

func TestFunctionInlining(t *testing.T) {
	res := run(t, `
func sq(a) { return a * a; }
func hyp2(a, b) { int s; s = sq(a) + sq(b); return s; }
int x = 3;
int y = 4;
int h;
h = hyp2(x, y);
output h;
`)
	if h, ok := res.Output("h"); !ok || h != value.Int(25) {
		t.Errorf("h = %v, want 25", h)
	}
}

func TestFunctionWithLocalsAndShadowing(t *testing.T) {
	// The function's x is independent of the program's x.
	res := run(t, `
func twice(x) { int t = x + x; return t; }
int x = 10;
int r;
r = twice(x + 1) + x;
output r;
`)
	if r, ok := res.Output("r"); !ok || r != value.Int(32) {
		t.Errorf("r = %v, want 32", r)
	}
}

func TestFunctionPerCallInstantiation(t *testing.T) {
	// Each call site clones the subgraph: two calls mean two multipliers.
	g, err := Compile("f", `
func sq(a) { return a * a; }
int x = 3;
int p;
int q;
p = sq(x);
q = sq(x + 1);
output p;
output q;
`)
	if err != nil {
		t.Fatal(err)
	}
	muls := 0
	for _, n := range g.Nodes {
		if n.Kind == dataflow.KindArith && n.Op == "*" {
			muls++
		}
	}
	if muls != 2 {
		t.Errorf("multipliers = %d, want 2 (one per call site)", muls)
	}
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := res.Output("p"); p != value.Int(9) {
		t.Errorf("p = %v", p)
	}
	if q, _ := res.Output("q"); q != value.Int(16) {
		t.Errorf("q = %v", q)
	}
}

func TestFunctionInsideLoopBody(t *testing.T) {
	res := run(t, `
func step(acc, i) { return acc + i * i; }
int i;
int s = 0;
for (i = 4; i > 0; i--) s = step(s, i);
output s;
`)
	if s, ok := res.Output("s"); !ok || s != value.Int(30) {
		t.Errorf("s = %v, want 30 (16+9+4+1)", s)
	}
}

func TestFunctionGraphConvertsToGamma(t *testing.T) {
	g, err := Compile("f", `
func affine(a) { return a * 3 + 1; }
int x = 5;
int y;
y = affine(affine(x));
output y;
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, init, err := core.ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gamma.Run(prog, init, gamma.Options{MaxSteps: 10000}); err != nil {
		t.Fatal(err)
	}
	out := core.OutputsFromMultiset(init, []string{"y"})
	if len(out["y"]) != 1 || out["y"][0].Val != value.Int(49) {
		t.Errorf("gamma y = %v, want 49", out["y"])
	}
	rep, err := equiv.Check(g, equiv.Options{MaxSteps: 10000})
	if err != nil || !rep.Equivalent {
		t.Errorf("equivalence: %v %v", err, rep)
	}
}

func TestFunctionErrors(t *testing.T) {
	bad := map[string]string{
		"undeclared function": `int x; x = nope(1);`,
		"wrong arity":         `func f(a) { return a; } int x; x = f(1, 2);`,
		"recursive":           `func f(a) { return f(a); } int x; x = f(1);`,
		"mutually recursive":  `func f(a) { return f(a - 1); } int x; x = f(3);`,
		"duplicate function":  `func f(a) { return a; } func f(b) { return b; }`,
		"dup local":           `func f(a) { int a = 1; return a; } int x; x = f(1);`,
		"assign undeclared":   `func f(a) { b = 1; return a; } int x; x = f(1);`,
		"unbound in body":     `func f(a) { int t = q; return t; } int x; x = f(1);`,
		"missing return":      `func f(a) { a = 1; }`,
		"bad body":            `func f(a) { for; return a; }`,
		"missing paren":       `func f(a { return a; }`,
		"keyword param":       `func f(for) { return 1; }`,
		"missing semi":        `func f(a) { return a }`,
	}
	for name, src := range bad {
		if g, err := Compile("bad", src); err == nil {
			t.Errorf("%s: should error, got\n%s", name, dfir.Marshal(g))
		}
	}
	// Builtin-looking calls are still rejected (no dataflow vertex).
	if _, err := Compile("bad", `int x; x = min(1, 2);`); err == nil {
		t.Error("builtin call should error")
	}
}

func TestFunctionDeclaredAfterUse(t *testing.T) {
	// Single pass: use-before-declaration is an error.
	if _, err := Compile("late", `int x; x = f(1); func f(a) { return a; }`); err == nil {
		t.Error("use before declaration should error")
	}
}
