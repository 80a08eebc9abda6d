package dataflow

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rt"
	"repro/internal/value"
)

// buildFig1 builds the Fig. 1 graph inline (the shared fixture lives in
// internal/paper, which imports this package).
func buildFig1(x, y, k, j int64) *Graph {
	g := NewGraph("fig1")
	cx := g.AddConst("x", value.Int(x))
	cy := g.AddConst("y", value.Int(y))
	ck := g.AddConst("k", value.Int(k))
	cj := g.AddConst("j", value.Int(j))
	r1 := g.AddArith("R1", "+")
	r2 := g.AddArith("R2", "*")
	r3 := g.AddArith("R3", "-")
	must := func(_ EdgeID, err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.Connect(cx, 0, r1, 0, "A1"))
	must(g.Connect(cy, 0, r1, 1, "B1"))
	must(g.Connect(ck, 0, r2, 0, "C1"))
	must(g.Connect(cj, 0, r2, 1, "D1"))
	must(g.Connect(r1, 0, r3, 0, "B2"))
	must(g.Connect(r2, 0, r3, 1, "C2"))
	must(g.ConnectOut(r3, 0, "m"))
	return g
}

func TestFig1Sequential(t *testing.T) {
	g := buildFig1(1, 5, 3, 2)
	res, rec, err := recorded(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := res.Output("m")
	if !ok || m != value.Int(0) {
		t.Fatalf("m = %v (%v), want 0", m, ok)
	}
	// 4 consts + 3 operators.
	if res.Firings != 7 {
		t.Errorf("firings = %d, want 7", res.Firings)
	}
	if per := rec.perName; per["R3"] != 1 || per["x"] != 1 {
		t.Errorf("per-node = %v", per)
	}
}

// TestFig1Parallel: a Workers count is ignored — every run is on one core —
// and Fig. 1 reads the same on both schedules whatever it asks for.
func TestFig1Parallel(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for _, e := range engineOptions {
			opt := e.opt
			opt.Workers = workers
			res, err := Run(buildFig1(1, 5, 3, 2), opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", e.name, workers, err)
			}
			if m, ok := res.Output("m"); !ok || m != value.Int(0) {
				t.Fatalf("%s workers=%d: m = %v", e.name, workers, m)
			}
			if res.Firings != 7 {
				t.Errorf("%s workers=%d: firings = %d", e.name, workers, res.Firings)
			}
		}
	}
}

func TestSetConstRerun(t *testing.T) {
	g := buildFig1(1, 5, 3, 2)
	if err := g.SetConst(g.NodeByName("x").ID, value.Int(10)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := res.Output("m"); m != value.Int(9) {
		t.Errorf("m = %v, want 9", m)
	}
	if err := g.SetConst(g.NodeByName("R1").ID, value.Int(1)); err == nil {
		t.Error("SetConst on non-const should error")
	}
	if err := g.SetConst(NodeID(99), value.Int(1)); err == nil {
		t.Error("SetConst on missing node should error")
	}
}

// buildLoop builds a minimal dynamic loop: acc starts at a, adds b, n times.
// Exercises steer, inctag, immediates and multiple in-edges per port.
func buildLoop(a, b, n int64) *Graph {
	g := NewGraph("loop")
	ca := g.AddConst("a", value.Int(a))
	cn := g.AddConst("n", value.Int(n))
	incA := g.AddIncTag("incA")
	incN := g.AddIncTag("incN")
	cmp := g.AddCompareImm("cmp", ">", value.Int(0))
	stA := g.AddSteer("stA")
	stN := g.AddSteer("stN")
	add := g.AddArithImm("add", "+", value.Int(b))
	dec := g.AddArithImm("dec", "-", value.Int(1))
	must := func(_ EdgeID, err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.Connect(ca, 0, incA, 0, "a0"))
	must(g.Connect(cn, 0, incN, 0, "n0"))
	must(g.Connect(incA, 0, stA, 0, "a1"))
	must(g.Connect(incN, 0, cmp, 0, "n1"))
	must(g.Connect(incN, 0, stN, 0, "n2"))
	must(g.Connect(cmp, 0, stA, 1, "c1"))
	must(g.Connect(cmp, 0, stN, 1, "c2"))
	must(g.Connect(stA, PortTrue, add, 0, "at"))
	must(g.Connect(stN, PortTrue, dec, 0, "nt"))
	must(g.Connect(add, 0, incA, 0, "aback")) // second in-edge on incA port 0
	must(g.Connect(dec, 0, incN, 0, "nback"))
	must(g.Connect(stA, PortFalse, NoNode, 0, "out"))
	// stN false port intentionally unconnected: token discarded.
	return g
}

func TestLoopSequential(t *testing.T) {
	cases := []struct{ a, b, n, want int64 }{
		{0, 1, 5, 5},
		{10, 4, 3, 22},
		{7, 100, 0, 7},
		{7, 100, -2, 7},
	}
	for _, c := range cases {
		res, err := Run(buildLoop(c.a, c.b, c.n), Options{})
		if err != nil {
			t.Fatalf("loop(%d,%d,%d): %v", c.a, c.b, c.n, err)
		}
		out, ok := res.Output("out")
		if !ok || out != value.Int(c.want) {
			t.Errorf("loop(%d,%d,%d) = %v, want %d", c.a, c.b, c.n, out, c.want)
		}
		// The output token's tag equals iterations+1 (tokens tagged from 1).
		iters := c.n
		if iters < 0 {
			iters = 0
		}
		if tag := res.Outputs["out"][0].Tag; tag != iters+1 {
			t.Errorf("loop(%d,%d,%d) out tag = %d, want %d", c.a, c.b, c.n, tag, iters+1)
		}
	}
}

// TestLoopParallel: as TestFig1Parallel, on the loop graph.
func TestLoopParallel(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for _, e := range engineOptions {
			opt := e.opt
			opt.Workers = workers
			res, err := Run(buildLoop(10, 4, 25), opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", e.name, workers, err)
			}
			if out, _ := res.Output("out"); out != value.Int(110) {
				t.Errorf("%s workers=%d: out = %v, want 110", e.name, workers, out)
			}
		}
	}
}

func TestImmediateLeft(t *testing.T) {
	// 100 / x with x = 4.
	g := NewGraph("immleft")
	cx := g.AddConst("x", value.Int(4))
	div := g.AddArithImmLeft("div", "/", value.Int(100))
	cmp := g.AddCompareImmLeft("cmp", "<", value.Int(10))
	if _, err := g.Connect(cx, 0, div, 0, "x0"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(div, 0, cmp, 0, "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectOut(cmp, 0, "lt"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 10 < 25 is true → 1.
	if v, _ := res.Output("lt"); v != value.Int(1) {
		t.Errorf("lt = %v, want 1", v)
	}
}

func TestUnaryAndCopy(t *testing.T) {
	g := NewGraph("uc")
	c := g.AddConst("c", value.Int(5))
	cp := g.AddCopy("cp")
	neg := g.AddUnary("neg", "-")
	if _, err := g.Connect(c, 0, cp, 0, "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(cp, 0, neg, 0, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectOut(cp, 0, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectOut(neg, 0, "negout"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Output("negout"); v != value.Int(-5) {
		t.Errorf("negout = %v", v)
	}
	if v, _ := res.Output("b"); v != value.Int(5) {
		t.Errorf("b = %v", v)
	}
}

func TestBooleanSteerControl(t *testing.T) {
	// A steer driven by a unary ! over a comparison result (int 0/1) —
	// truthiness plumbing across kinds.
	g := NewGraph("bools")
	cd := g.AddConst("d", value.Int(42))
	cc := g.AddConst("cbit", value.Int(3))
	cmp := g.AddCompareImm("cmp", "==", value.Int(4)) // 3 == 4 → 0
	not := g.AddUnary("not", "!")                     // !0 → true
	st := g.AddSteer("st")
	must := func(_ EdgeID, err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.Connect(cc, 0, cmp, 0, "c0"))
	must(g.Connect(cmp, 0, not, 0, "c1"))
	must(g.Connect(cd, 0, st, 0, "d0"))
	must(g.Connect(not, 0, st, 1, "c2"))
	must(g.ConnectOut(st, PortTrue, "t"))
	must(g.ConnectOut(st, PortFalse, "f"))
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Output("t"); !ok || v != value.Int(42) {
		t.Errorf("true out = %v, %v", v, ok)
	}
	if _, ok := res.Output("f"); ok {
		t.Error("false out should be empty")
	}
}

func TestValidationErrors(t *testing.T) {
	// Empty graph.
	if err := NewGraph("empty").Validate(); err == nil {
		t.Error("empty graph should fail validation")
	}
	// Unconnected input.
	g := NewGraph("dangling")
	g.AddArith("add", "+")
	if err := g.Validate(); err == nil {
		t.Error("dangling input should fail validation")
	}
	// Bad operators.
	g2 := NewGraph("badop")
	c := g2.AddConst("c", value.Int(1))
	a := g2.AddArith("a", "**")
	if _, err := g2.Connect(c, 0, a, 0, "e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Connect(c, 0, a, 1, "e2"); err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err == nil {
		t.Error("bad arith op should fail validation")
	}
	g3 := NewGraph("badcmp")
	c3 := g3.AddConst("c", value.Int(1))
	cm := g3.AddCompare("cm", "<>")
	if _, err := g3.Connect(c3, 0, cm, 0, "e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := g3.Connect(c3, 0, cm, 1, "e2"); err != nil {
		t.Fatal(err)
	}
	if err := g3.Validate(); err == nil {
		t.Error("bad compare op should fail validation")
	}
	g4 := NewGraph("badunary")
	c4 := g4.AddConst("c", value.Int(1))
	u := g4.AddUnary("u", "~")
	if _, err := g4.Connect(c4, 0, u, 0, "e1"); err != nil {
		t.Fatal(err)
	}
	if err := g4.Validate(); err == nil {
		t.Error("bad unary op should fail validation")
	}
	// Const without value.
	g5 := NewGraph("noval")
	g5.AddConst("c", value.Value{})
	if err := g5.Validate(); err == nil {
		t.Error("const without value should fail validation")
	}
}

// TestValidationPortCount: a vertex whose input ports differ from what its
// kind takes is refused before it runs, not matched in the token store (two
// inline ports) or given a direct slot while its layout reads an immediate.
// Such vertices are only reachable by editing the exported slices.
func TestValidationPortCount(t *testing.T) {
	// An arithmetic vertex given a third port by hand, all three fed.
	g := NewGraph("wide")
	c0 := g.AddConst("c", value.Int(1))
	a0 := g.AddArith("a", "+")
	g.Nodes[a0].In = append(g.Nodes[a0].In, nil)
	for port, label := range []string{"e0", "e1", "e2"} {
		if _, err := g.Connect(c0, 0, a0, port, label); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.ConnectOut(a0, 0, "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "3 input ports, want 2") {
		t.Errorf("three-port arith: Validate = %v", err)
	}
	if _, err := Run(g, Options{}); err == nil || !strings.Contains(err.Error(), "3 input ports") {
		t.Errorf("three-port arith: Run = %v, want the validation error, not a panic", err)
	}
	// A fused immediate beside two ports.
	h := NewGraph("imm2")
	c := h.AddConst("c", value.Int(1))
	a := h.AddArithImm("a", "+", value.Int(2))
	if _, err := h.Connect(c, 0, a, 0, "e1"); err != nil {
		t.Fatal(err)
	}
	h.Nodes[a].In = append(h.Nodes[a].In, []EdgeID{0})
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "2 input ports, want 1") {
		t.Errorf("immediate beside two ports: Validate = %v", err)
	}
	// An input port on a const.
	k := NewGraph("constin")
	k.Nodes[k.AddConst("c", value.Int(1))].In = [][]EdgeID{{0}}
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "1 input ports, want 0") {
		t.Errorf("const with an input port: Validate = %v", err)
	}
}

// TestValidationDuplicateNames: two vertices under one name are refused, as
// dfir.Unmarshal refuses them in text. A schedule names the vertex each step
// fired, so such a graph recorded a run that replay could not tell apart.
func TestValidationDuplicateNames(t *testing.T) {
	g := NewGraph("twins")
	for i, mk := range []func() NodeID{
		func() NodeID { return g.AddConst("c", value.Int(1)) },
		func() NodeID { return g.AddConst("c", value.Int(2)) },
	} {
		x := g.AddArithImm("x", []string{"+", "*"}[i], value.Int(int64(1+2*i)))
		if _, err := g.Connect(mk(), 0, x, 0, fmt.Sprintf("e%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.ConnectOut(x, 0, fmt.Sprintf("out%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "two vertices named") {
		t.Errorf("Validate = %v, want the duplicate name refused", err)
	}
	if _, err := Run(g, Options{}); !errors.Is(err, rt.ErrInvalid) {
		t.Errorf("Run = %v, want rt.ErrInvalid", err)
	}
}

func TestConnectErrors(t *testing.T) {
	g := NewGraph("conn")
	c := g.AddConst("c", value.Int(1))
	a := g.AddArith("a", "+")
	if _, err := g.Connect(c, 0, a, 0, ""); err == nil {
		t.Error("empty label should error")
	}
	if _, err := g.Connect(c, 0, a, 0, "e"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(c, 0, a, 1, "e"); err == nil {
		t.Error("duplicate label should error")
	}
	if _, err := g.Connect(c, 5, a, 1, "e2"); err == nil {
		t.Error("bad from-port should error")
	}
	if _, err := g.Connect(c, 0, a, 9, "e3"); err == nil {
		t.Error("bad to-port should error")
	}
	if _, err := g.Connect(NodeID(77), 0, a, 1, "e4"); err == nil {
		t.Error("bad from-node should error")
	}
	if _, err := g.Connect(c, 0, NodeID(77), 0, "e5"); err == nil {
		t.Error("bad to-node should error")
	}
}

func TestLookups(t *testing.T) {
	g := buildFig1(1, 5, 3, 2)
	if g.EdgeByLabel("B2") == nil || g.EdgeByLabel("ZZ") != nil {
		t.Error("EdgeByLabel wrong")
	}
	if g.NodeByName("R2") == nil || g.NodeByName("nope") != nil {
		t.Error("NodeByName wrong")
	}
	if g.Node(0) == nil || g.Node(NodeID(99)) != nil || g.Node(NoNode) != nil {
		t.Error("Node bounds wrong")
	}
	outs := g.OutputLabels()
	if len(outs) != 1 || outs[0] != "m" {
		t.Errorf("OutputLabels = %v", outs)
	}
	roots := g.RootNodes()
	if len(roots) != 4 {
		t.Errorf("roots = %d", len(roots))
	}
}

// Clone returns an independent deep copy of the graph — a first version of its
// own, sharing no plan — optionally renaming every edge label through rename
// (nil keeps labels).
func (g *Graph) Clone(name string, rename func(label string) string) *Graph {
	c := NewGraph(name)
	for _, n := range g.Nodes {
		id := c.addNode(n.Kind, n.Name, n.Op, n.Init)
		if n.Imm.IsValid() {
			c.setImm(id, n.Imm, n.ImmLeft)
		}
	}
	for _, e := range g.Edges {
		label := e.Label
		if rename != nil {
			label = rename(label)
		}
		if _, err := c.connect(e.From, e.FromPort, e.To, e.ToPort, label); err != nil {
			// Impossible for a well-formed source graph with injective rename.
			panic(fmt.Sprintf("dataflow: clone of %s broke: %v", g.Name, err))
		}
	}
	return c
}

func TestClone(t *testing.T) {
	g := buildLoop(10, 4, 3)
	c := g.Clone("copy", func(l string) string { return l + "_1" })
	if c.EdgeByLabel("out_1") == nil {
		t.Fatal("renamed edge missing")
	}
	res, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Output("out_1"); v != value.Int(22) {
		t.Errorf("clone out = %v, want 22", v)
	}
	// Clone preserves immediates (dec keeps working) — covered by result.
	// nil rename keeps labels.
	c2 := g.Clone("copy2", nil)
	if c2.EdgeByLabel("out") == nil {
		t.Error("nil-rename clone lost labels")
	}
	// Mutating clone consts must not affect the original.
	if err := c2.SetConst(c2.NodeByName("a").ID, value.Int(0)); err != nil {
		t.Fatal(err)
	}
	if g.NodeByName("a").Init != value.Int(10) {
		t.Error("clone shares node state with original")
	}
}

func TestRuntimeErrors(t *testing.T) {
	// Division by zero.
	g := NewGraph("divzero")
	c1 := g.AddConst("c1", value.Int(1))
	div := g.AddArithImm("div", "/", value.Int(0))
	if _, err := g.Connect(c1, 0, div, 0, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectOut(div, 0, "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, Options{}); err == nil {
		t.Error("sequential divide by zero should error")
	}
	// Steer with non-truthy control.
	g2 := NewGraph("badsteer")
	cd := g2.AddConst("d", value.Int(1))
	cs := g2.AddConst("s", value.Str("oops"))
	st := g2.AddSteer("st")
	must := func(_ EdgeID, err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g2.Connect(cd, 0, st, 0, "d0"))
	must(g2.Connect(cs, 0, st, 1, "c0"))
	must(g2.ConnectOut(st, PortTrue, "t"))
	if _, err := Run(g2, Options{}); err == nil {
		t.Error("string steer control should error")
	}
	// Type error in comparison.
	g3 := NewGraph("badcmp")
	cc := g3.AddConst("c", value.Str("s"))
	cm := g3.AddCompareImm("cm", "<", value.Int(0))
	must(g3.Connect(cc, 0, cm, 0, "x"))
	must(g3.ConnectOut(cm, 0, "y"))
	if _, err := Run(g3, Options{}); err == nil {
		t.Error("string < int should error")
	}
}

func TestMaxFirings(t *testing.T) {
	// An infinite loop: inctag feeding itself through a copy.
	g := NewGraph("spin")
	c := g.AddConst("c", value.Int(1))
	inc := g.AddIncTag("inc")
	cp := g.AddCopy("cp")
	must := func(_ EdgeID, err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.Connect(c, 0, inc, 0, "seed"))
	must(g.Connect(inc, 0, cp, 0, "fwd"))
	must(g.Connect(cp, 0, inc, 0, "back"))
	// Under either engine spelling the run refuses the firing that would
	// exceed the budget: the partial result never overdraws it (gammad
	// charges tenants by it).
	for _, opt := range []Options{{}, {Engine: EngineMatrix}} {
		opt.MaxFirings = 100
		res, err := Run(g, opt)
		if !errors.Is(err, ErrMaxFirings) {
			t.Errorf("%+v: err = %v, want ErrMaxFirings", opt, err)
		}
		if res == nil || res.Firings > opt.MaxFirings {
			t.Errorf("%+v: partial result %+v overdraws the budget", opt, res)
		}
		// Const firings are budgeted too: a budget below the const count
		// stops the seeding itself.
		opt.MaxFirings = 2
		res, err = Run(buildFig1(1, 5, 3, 2), opt)
		if !errors.Is(err, ErrMaxFirings) || res == nil || res.Firings > 2 {
			t.Errorf("%+v below const count: res %+v err %v", opt, res, err)
		}
	}
}

func TestValidateFailsRunEarly(t *testing.T) {
	g := NewGraph("bad")
	g.AddArith("a", "+")
	if _, err := Run(g, Options{}); err == nil {
		t.Error("Run should validate first")
	}
}

func TestResultOutputMissing(t *testing.T) {
	r := &Result{}
	if _, ok := r.Output("nope"); ok {
		t.Error("missing output should report !ok")
	}
}

func TestNodeKindStrings(t *testing.T) {
	kinds := []NodeKind{KindConst, KindArith, KindCompare, KindSteer, KindIncTag, KindCopy, KindUnaryOp}
	for _, k := range kinds {
		if k.String() == "invalid" {
			t.Errorf("kind %d renders invalid", k)
		}
	}
	if KindInvalid.String() != "invalid" || NodeKind(99).String() != "invalid" {
		t.Error("invalid kinds should render invalid")
	}
}

func TestTokenQueuePerPort(t *testing.T) {
	// Two tokens with the same tag on the same port must queue, not clobber:
	// deliver both halves of two matches out of order.
	g := NewGraph("queue")
	add := g.AddArith("add", "+")
	c1 := g.AddConst("c1", value.Int(1))
	c2 := g.AddConst("c2", value.Int(2))
	must := func(_ EdgeID, err error) {
		if err != nil {
			panic(err)
		}
	}
	// Both constants feed port 0 via distinct edges; port 1 is fed by a copy
	// of each through another const pair.
	c3 := g.AddConst("c3", value.Int(10))
	c4 := g.AddConst("c4", value.Int(20))
	must(g.Connect(c1, 0, add, 0, "l1"))
	must(g.Connect(c2, 0, add, 0, "l2"))
	must(g.Connect(c3, 0, add, 1, "r1"))
	must(g.Connect(c4, 0, add, 1, "r2"))
	must(g.ConnectOut(add, 0, "s"))
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs := res.Outputs["s"]
	if len(outs) != 2 {
		t.Fatalf("outputs = %v, want 2 sums", outs)
	}
	sum := outs[0].Val.AsInt() + outs[1].Val.AsInt()
	if sum != 33 { // (1+2) + (10+20) pairwise in some order
		t.Errorf("total = %d, want 33", sum)
	}
}

// Property: the loop graph computes a + b*n for arbitrary small inputs.
func TestQuickLoopComputesAffine(t *testing.T) {
	f := func(a, b int16, n uint8) bool {
		iters := int64(n % 12)
		g := buildLoop(int64(a), int64(b), iters)
		res, err := Run(g, Options{})
		if err != nil {
			return false
		}
		want := int64(a) + int64(b)*iters
		out, ok := res.Output("out")
		return ok && out.AsInt() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
