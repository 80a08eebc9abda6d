package compiler

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/paper"
	"repro/internal/value"
)

// Example1Source is the paper's first von Neumann listing.
const Example1Source = `
int x = 1;
int y = 5;
int k = 3;
int j = 2;
int m;
m = (x + y) - (k * j);
`

// Example2Source is the paper's second listing (with the comparison the
// drawn graph actually uses, i > 0), made observable with an output.
const Example2Source = `
int y = 4;
int z = 3;
int x = 10;
int i;
for (i = z; i > 0; i--) x = x + y;
output x;
`

func run(t *testing.T, src string) *dataflow.Result {
	t.Helper()
	g, err := Compile("test", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.Run(g, dataflow.Options{MaxFirings: 100000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCompileExample1(t *testing.T) {
	res := run(t, Example1Source)
	if m, ok := res.Output("m"); !ok || m != value.Int(0) {
		t.Errorf("m = %v, want 0", m)
	}
	if len(res.Outputs) != 1 {
		t.Errorf("outputs = %v, want only m", res.Outputs)
	}
}

func TestCompileExample1MatchesFig1(t *testing.T) {
	// The compiled graph has the same operator structure as the hand-drawn
	// Fig. 1: 4 consts, one +, one *, one -.
	g, err := Compile("ex1", Example1Source)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[dataflow.NodeKind]int{}
	ops := map[string]int{}
	for _, n := range g.Nodes {
		counts[n.Kind]++
		if n.Kind == dataflow.KindArith {
			ops[n.Op]++
		}
	}
	if counts[dataflow.KindConst] != 4 || counts[dataflow.KindArith] != 3 {
		t.Errorf("node census = %v", counts)
	}
	if ops["+"] != 1 || ops["*"] != 1 || ops["-"] != 1 {
		t.Errorf("operator census = %v", ops)
	}
	// And it agrees with the fixture graph's output.
	res1, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := dataflow.Run(paper.Fig1Graph(), dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := res1.Output("m")
	m2, _ := res2.Output("m")
	if m1 != m2 {
		t.Errorf("compiled m = %v, fixture m = %v", m1, m2)
	}
}

func TestCompileExample2Loop(t *testing.T) {
	res := run(t, Example2Source)
	if x, ok := res.Output("x"); !ok || x != value.Int(22) {
		t.Errorf("x = %v, want 22", x)
	}
	// The loop structure uses steer and inctag vertices like Fig. 2.
	g, _ := Compile("ex2", Example2Source)
	counts := map[dataflow.NodeKind]int{}
	for _, n := range g.Nodes {
		counts[n.Kind]++
	}
	if counts[dataflow.KindSteer] == 0 || counts[dataflow.KindIncTag] == 0 {
		t.Errorf("loop should emit steers and inctags: %v", counts)
	}
	if counts[dataflow.KindCompare] != 1 {
		t.Errorf("one comparison expected: %v", counts)
	}
}

func TestCompiledLoopConvertsToGamma(t *testing.T) {
	// End-to-end: von Neumann source → dataflow graph (this package) →
	// Gamma program (Algorithm 1) → same result.
	g, err := Compile("loop", Example2Source)
	if err != nil {
		t.Fatal(err)
	}
	prog, init, err := core.ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gamma.Run(prog, init, gamma.Options{MaxSteps: 100000}); err != nil {
		t.Fatal(err)
	}
	out := core.OutputsFromMultiset(init, []string{"x"})
	if len(out["x"]) != 1 || out["x"][0].Val != value.Int(22) {
		t.Errorf("gamma x = %v, want 22", out["x"])
	}
}

func TestLoopVariants(t *testing.T) {
	cases := []struct {
		src  string
		outs map[string]int64
	}{
		{ // increment loop
			src:  `int i; int s = 0; for (i = 0; i < 5; i++) s = s + i; output s;`,
			outs: map[string]int64{"s": 10},
		},
		{ // multiple body statements with braces
			src: `int i; int a = 0; int b = 1;
			      for (i = 3; i > 0; i--) { a = a + b; b = b * 2; }
			      output a; output b;`,
			outs: map[string]int64{"a": 7, "b": 8},
		},
		{ // loop never entered
			src:  `int i; int s = 42; for (i = 0; i > 0; i--) s = s + 1; output s;`,
			outs: map[string]int64{"s": 42},
		},
		{ // explicit step assignment
			src:  `int i; int s = 0; for (i = 10; i > 0; i = i - 3) s = s + i; output s;`,
			outs: map[string]int64{"s": 22}, // 10 + 7 + 4 + 1
		},
		{ // unary and modulo in straight-line code
			src:  `int a = 7; int b; b = -a % 3; output b;`,
			outs: map[string]int64{"b": -1},
		},
	}
	for _, c := range cases {
		res := run(t, c.src)
		for name, want := range c.outs {
			got, ok := res.Output(name)
			if !ok || got != value.Int(want) {
				t.Errorf("%q: %s = %v, want %d", c.src, name, got, want)
			}
		}
	}
}

func TestCompiledLoopParallelAgrees(t *testing.T) {
	src := `int i; int s = 0; for (i = 20; i > 0; i--) s = s + i * i; output s;`
	g1, err := Compile("p", src)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := dataflow.Run(g1, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := MustCompile("p", src)
	par, err := dataflow.Run(g2, dataflow.Options{Workers: 4}) // ignored: one core
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Errorf("sequential %v vs workers 4 %v", seq.Outputs, par.Outputs)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		``,                                   // produces an empty graph (validate fails)
		`x = 1;`,                             // undeclared
		`int x = 1; int x = 2;`,              // redeclared
		`int x = y;`,                         // read before assignment
		`int x;`,                             // declared but graph empty
		`int x = 1`,                          // missing semicolon
		`int for = 1;`,                       // keyword identifier
		`int x = 1; for (x = 1; x > 0) x--;`, // malformed for
		`int x = 1; for (x = 1; x > 0; x--) int y = 1;;`, // decl in body
		`int x = 1; output q;`,                           // unknown output
		`int x = 1; x -;`,                                // broken decrement
		`int i; for (i = 0; i < 3; i++) q = 1;`,          // undeclared in body
		`int a = 1; int x = a and true;`,                 // unsupported operator (unfoldable)
		`int x = min(1, 2);`,                             // calls unsupported
		`int x = 1; output x`,                            // missing semi after output
	}
	for _, src := range bad {
		if g, err := Compile("bad", src); err == nil {
			t.Errorf("Compile(%q) should error, got graph:\n%s", src, g)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic")
		}
	}()
	MustCompile("bad", "x = 1;")
}

func TestImplicitAndExplicitOutputs(t *testing.T) {
	// Implicit: assigned-but-never-read variables.
	res := run(t, `int a = 1; int b; int c; b = a + 1; c = a * 2;`)
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs = %v, want b and c", res.Outputs)
	}
	if b, _ := res.Output("b"); b != value.Int(2) {
		t.Errorf("b = %v", b)
	}
	if c, _ := res.Output("c"); c != value.Int(2) {
		t.Errorf("c = %v", c)
	}
	// Explicit outputs override the implicit rule and deduplicate.
	res = run(t, `int a = 1; int b; b = a + 1; output a; output a;`)
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %v, want just a", res.Outputs)
	}
	if a, _ := res.Output("a"); a != value.Int(1) {
		t.Errorf("a = %v", a)
	}
}

// Property: for random small (a, b, n) the compiled accumulator loop matches
// the closed form through the whole pipeline (compile → run).
func TestQuickCompiledLoop(t *testing.T) {
	f := func(a, b int8, n uint8) bool {
		iters := int64(n % 10)
		src := `int i; int acc = ` + value.Int(int64(a)).String() + `;
		        int step = ` + value.Int(int64(b)).String() + `;
		        for (i = ` + value.Int(iters).String() + `; i > 0; i--) acc = acc + step;
		        output acc;`
		g, err := Compile("q", src)
		if err != nil {
			return false
		}
		res, err := dataflow.Run(g, dataflow.Options{})
		if err != nil {
			return false
		}
		out, ok := res.Output("acc")
		return ok && out == value.Int(int64(a)+int64(b)*iters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
