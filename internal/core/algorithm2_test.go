package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/expr"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/value"
)

func mustReaction(t *testing.T, src string) *gamma.Reaction {
	t.Helper()
	r, err := gammalang.ParseReaction(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestClassifyExample2Listing(t *testing.T) {
	// Every reaction of the paper's Example-2 listing classifies to the
	// vertex kind of the original Fig. 2 graph — the paper's future-work
	// transformation realized.
	prog, err := gammalang.ParseProgram("ex2", paper.Example2GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]dataflow.NodeKind{
		"R11": dataflow.KindIncTag,
		"R12": dataflow.KindIncTag,
		"R13": dataflow.KindIncTag,
		"R14": dataflow.KindCompare,
		"R15": dataflow.KindSteer,
		"R16": dataflow.KindSteer,
		"R17": dataflow.KindSteer,
		"R18": dataflow.KindArith,
		"R19": dataflow.KindArith,
	}
	for _, r := range prog.Reactions {
		spec, err := ClassifyReaction(r)
		if err != nil {
			t.Errorf("%s: %v", r.Name, err)
			continue
		}
		if spec.Kind != want[r.Name] {
			t.Errorf("%s classified as %s, want %s", r.Name, spec.Kind, want[r.Name])
		}
	}
}

func TestClassifyDetails(t *testing.T) {
	// Inctag with merge labels: in-labels recovered from the condition.
	r11 := mustReaction(t, `R11 = replace [id1, x, v] by [id1, 'A12', v + 1] if (x == 'A1') or (x == 'A11')`)
	spec, err := ClassifyReaction(r11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.InLabels, [][]string{{"A1", "A11"}}) {
		t.Errorf("InLabels = %v", spec.InLabels)
	}
	if !reflect.DeepEqual(spec.OutLabels, [][]string{{"A12"}}) {
		t.Errorf("OutLabels = %v", spec.OutLabels)
	}

	// Steer: ports ordered data then control even when the reaction lists
	// the control pattern first.
	st := mustReaction(t, `S = replace [c, 'CTL', v], [d, 'DAT', v]
		by [d, 'T', v] if c == 1
		by [d, 'F', v] else`)
	spec, err = ClassifyReaction(st)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != dataflow.KindSteer {
		t.Fatalf("kind = %s", spec.Kind)
	}
	if !reflect.DeepEqual(spec.InLabels, [][]string{{"DAT"}, {"CTL"}}) {
		t.Errorf("steer InLabels = %v", spec.InLabels)
	}
	if !reflect.DeepEqual(spec.OutLabels, [][]string{{"T"}, {"F"}}) {
		t.Errorf("steer OutLabels = %v", spec.OutLabels)
	}

	// Comparison with immediate: R14's shape.
	r14 := mustReaction(t, `R14 = replace [id1, 'B12', v]
		by [1, 'B14', v], [1, 'B15', v] if id1 > 0
		by [0, 'B14', v], [0, 'B15', v] else`)
	spec, err = ClassifyReaction(r14)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != dataflow.KindCompare || spec.Op != ">" || spec.Imm != value.Int(0) || spec.ImmLeft {
		t.Errorf("compare spec = %+v", spec)
	}

	// Arith with reversed operand order reorders ports.
	ar := mustReaction(t, `A = replace [b, 'RB', v], [a, 'RA', v] by [a - b, 'O', v]`)
	spec, err = ClassifyReaction(ar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.InLabels, [][]string{{"RA"}, {"RB"}}) {
		t.Errorf("arith InLabels = %v", spec.InLabels)
	}

	// Copy and unary.
	cp := mustReaction(t, `C = replace [x, 'I', v] by [x, 'O1', v], [x, 'O2', v]`)
	if spec, err = ClassifyReaction(cp); err != nil || spec.Kind != dataflow.KindCopy {
		t.Errorf("copy: %v %v", spec, err)
	}
	un := mustReaction(t, `U = replace [x, 'I', v] by [-x, 'O', v]`)
	if spec, err = ClassifyReaction(un); err != nil || spec.Kind != dataflow.KindUnaryOp || spec.Op != "-" {
		t.Errorf("unary: %v %v", spec, err)
	}
	// Immediate-left arith.
	il := mustReaction(t, `L = replace [x, 'I', v] by [100 / x, 'O', v]`)
	if spec, err = ClassifyReaction(il); err != nil || !spec.ImmLeft || spec.Imm != value.Int(100) {
		t.Errorf("imm-left: %+v %v", spec, err)
	}
}

func TestClassifyRejectsGenericReactions(t *testing.T) {
	bad := []string{
		`R = replace [x], [y] by [x] if x < y`,                         // pair elements, not triplets
		`R = replace [x, 'A', v], [y, 'B', v] by [x + y + 1, 'O', v]`,  // expression is not a single vertex
		`R = replace [x, 'A', v] by [x, 'O', v + 1], [x, 'P', v]`,      // mixed tag deltas
		`R = replace [x, 'A', v] by ['lit', 'O', v]`,                   // literal product without condition shape
		`R = replace [x, 'A', v], [y, 'B', v] by [x, 'O', v] if x < y`, // guard on a forwarding reaction
		`R = replace [x, 'A', v] by [x, 'O', w]`,                       // foreign tag variable: rejected at validate
		`R = replace [x, 'A', v], [y, 'B', w] by [x + y, 'O', v]`,      // two tag variables
		`R = replace [x, 'A', v] by 0 if x > 0`,                        // consumes without producing
	}
	for _, src := range bad {
		r, err := gammalang.ParseReaction(src)
		if err != nil {
			continue // rejected even earlier — also fine for the last cases
		}
		if spec, err := ClassifyReaction(r); err == nil {
			t.Errorf("ClassifyReaction(%q) = %+v, want error", src, spec)
		}
	}
}

// TestProgramToGraphRoundTrip is the core equivalence statement: converting
// Fig. 1 / Fig. 2 to Gamma (Algorithm 1) and back yields a graph with
// identical behaviour.
func TestProgramToGraphRoundTrip(t *testing.T) {
	graphs := map[string]*dataflow.Graph{
		"fig1":     paper.Fig1Graph(),
		"fig2-obs": paper.Fig2GraphObservable(10, 4, 3),
		"fig2":     paper.Fig2Graph(),
	}
	for name, g := range graphs {
		prog, init, err := ToGamma(g)
		if err != nil {
			t.Fatalf("%s: ToGamma: %v", name, err)
		}
		back, err := ProgramToGraph(name+"-back", prog, init)
		if err != nil {
			t.Fatalf("%s: ProgramToGraph: %v", name, err)
		}
		res1, err := dataflow.Run(g, dataflow.Options{MaxFirings: 100000})
		if err != nil {
			t.Fatalf("%s: original run: %v", name, err)
		}
		res2, err := dataflow.Run(back, dataflow.Options{MaxFirings: 100000})
		if err != nil {
			t.Fatalf("%s: reconstructed run: %v", name, err)
		}
		if !reflect.DeepEqual(res1.Outputs, res2.Outputs) {
			t.Errorf("%s: outputs differ: %v vs %v", name, res1.Outputs, res2.Outputs)
		}
		if res1.Firings != res2.Firings {
			t.Errorf("%s: firings differ: %d vs %d", name, res1.Firings, res2.Firings)
		}
	}
}

// TestProgramToGraphFromListing reconstructs a dataflow graph from the
// paper's hand-written Example-2 listing (adding tags it already has) and
// runs it: like the listing, it must discard everything.
func TestProgramToGraphFromListing(t *testing.T) {
	prog, err := gammalang.ParseProgram("ex2", paper.Example2GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	init, err := multiset.Parse(paper.Example2InitialMultiset(10, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ProgramToGraph("ex2", prog, init)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.Run(g, dataflow.Options{MaxFirings: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Errorf("outputs = %v, want none (listing discards all state)", res.Outputs)
	}
	// And the Gamma side agrees.
	if _, err := gamma.Run(prog, init, gamma.Options{MaxSteps: 100000}); err != nil {
		t.Fatal(err)
	}
	if init.Len() != 0 {
		t.Errorf("gamma result = %s, want empty", init)
	}
}

func TestProgramToGraphErrors(t *testing.T) {
	mk := func(srcs ...string) *gamma.Program {
		var rs []*gamma.Reaction
		for _, s := range srcs {
			rs = append(rs, mustReaction(t, s))
		}
		return gamma.MustProgram("p", rs...)
	}
	// Unknown consumed label.
	p := mk(`A = replace [x, 'IN', v] by [x, 'OUT', v]`)
	if _, err := ProgramToGraph("p", p, multiset.New()); err == nil {
		t.Error("missing producer should error")
	}
	// Two producers for one label.
	p2 := mk(
		`A = replace [x, 'I1', v] by [x, 'O', v]`,
		`B = replace [x, 'I2', v] by [x, 'O', v]`,
	)
	init2 := multiset.New(multiset.IntElem(1, "I1", 0), multiset.IntElem(2, "I2", 0))
	if _, err := ProgramToGraph("p", p2, init2); err == nil {
		t.Error("duplicate producer should error")
	}
	// Label consumed twice.
	p3 := mk(
		`A = replace [x, 'I', v] by [x, 'I2', v]`,
		`B = replace [x, 'I2', v] by [x, 'O1', v]`,
		`C = replace [x, 'I2', v] by [x, 'O2', v]`,
	)
	init3 := multiset.New(multiset.IntElem(1, "I", 0))
	if _, err := ProgramToGraph("p", p3, init3); err == nil {
		t.Error("doubly consumed label should error")
	}
	// Bad initial elements.
	p4 := mk(`A = replace [x, 'I', v] by [x, 'O', v]`)
	for _, init := range []*multiset.Multiset{
		multiset.New(multiset.Tuple{value.Int(1)}), // no label
		multiset.New(multiset.IntElem(1, "I", 2)),  // nonzero tag
	} {
		if _, err := ProgramToGraph("p", p4, init); err == nil {
			t.Errorf("bad init %s should error", init)
		}
	}
	dup := multiset.New(multiset.IntElem(1, "I", 0))
	dup.Add(multiset.IntElem(1, "I", 0))
	if _, err := ProgramToGraph("p", p4, dup); err == nil {
		t.Error("multiplicity >1 init should error")
	}
	// Generic reaction fails classification.
	p5 := mk(`A = replace [x, 'I', v], [y, 'J', v] by [x + y + 1, 'O', v]`)
	if _, err := ProgramToGraph("p", p5, multiset.New()); err == nil {
		t.Error("generic reaction should error")
	}
}

// TestReactionToGraphUnconditional: Rd1's fused expression builds an
// expression tree and evaluates like the original.
func TestReactionToGraphUnconditional(t *testing.T) {
	rd1, err := gammalang.ParseProgram("rd1", paper.ReducedExample1Listing)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReactionToGraph(rd1.Reactions[0])
	if err != nil {
		t.Fatal(err)
	}
	// Roots are placeholders; set the paper's inputs.
	vals := map[string]int64{"id1": 1, "id2": 5, "id3": 3, "id4": 2}
	for name, v := range vals {
		n := g.NodeByName(name)
		if n == nil {
			t.Fatalf("missing root %s in\n%s", name, dfir.Marshal(g))
		}
		if err := g.SetConst(n.ID, value.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := res.Output("m"); !ok || out != value.Int(0) {
		t.Errorf("m = %v, want 0", out)
	}
}

// TestReactionToGraphConditional: a steer-like reaction routes by its
// condition through comparison and steer nodes (Algorithm 2 lines 6-16).
func TestReactionToGraphConditional(t *testing.T) {
	r := mustReaction(t, `R = replace [x, 'X', v], [y, 'Y', v]
		by [x + y, 'SUM', v] if x < y
		by [x - y, 'DIFF', v] else`)
	g, err := ReactionToGraph(r)
	if err != nil {
		t.Fatal(err)
	}
	set := func(name string, v int64) {
		n := g.NodeByName(name)
		if n == nil {
			t.Fatalf("missing root %s", name)
		}
		if err := g.SetConst(n.ID, value.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	set("x", 2)
	set("y", 5)
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := res.Output("SUM"); !ok || out != value.Int(7) {
		t.Errorf("SUM = %v, want 7", out)
	}
	if _, ok := res.Output("DIFF"); ok {
		t.Error("DIFF should not fire when x < y")
	}
	// Flip the condition.
	set("x", 9)
	res, err = dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := res.Output("DIFF"); !ok || out != value.Int(4) {
		t.Errorf("DIFF = %v, want 4", out)
	}
	if _, ok := res.Output("SUM"); ok {
		t.Error("SUM should not fire when x >= y")
	}
}

func TestReactionToGraphLiteralProductsGated(t *testing.T) {
	// A compare-shaped reaction: literal products must be gated by the
	// condition, so exactly one branch's element appears.
	r := mustReaction(t, `R = replace [x, 'X', v]
		by [1, 'C', v] if x > 0
		by [0, 'C', v] else`)
	g, err := ReactionToGraph(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetConst(g.NodeByName("x").ID, value.Int(5)); err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := res.Output("C"); !ok || out != value.Int(1) {
		t.Errorf("C = %v, want 1", out)
	}
	if _, ok := res.Output("C#f"); ok {
		t.Error("false-side C#f should not fire for x > 0")
	}
}

func TestReactionToGraphErrors(t *testing.T) {
	bad := []string{
		`R = replace [x] by [min(x, 1)]`,        // calls have no vertex
		`R = replace [x] by [x] if x > 0 where`, // parse error, skipped below
	}
	for _, src := range bad {
		r, err := gammalang.ParseReaction(src)
		if err != nil {
			continue
		}
		if _, err := ReactionToGraph(r); err == nil {
			t.Errorf("ReactionToGraph(%q) should error", src)
		}
	}
	// Three branches.
	r3 := &gamma.Reaction{
		Name:     "tri",
		Patterns: []gamma.Pattern{{gamma.FVar("x")}},
		Branches: []gamma.Branch{
			{Cond: expr.MustParse("x > 0")},
			{Cond: expr.MustParse("x < 0")},
			{},
		},
	}
	if _, err := ReactionToGraph(r3); err == nil {
		t.Error("three branches should error")
	}
	// A repeated variable is an equality constraint: both patterns share
	// one root in the subgraph.
	rd := mustReaction(t, `R = replace [x, 'A', v], [x, 'B', v] by [x, 'O', v]`)
	g, err := ReactionToGraph(rd)
	if err != nil {
		t.Fatalf("shared variable should build: %v", err)
	}
	roots := 0
	for _, n := range g.Nodes {
		if n.Kind == dataflow.KindConst {
			roots++
		}
	}
	if roots != 2 { // x and v
		t.Errorf("roots = %d, want 2 (x shared, v shared)", roots)
	}
}

// TestReactionToGraphSwapSort converts the exchange-sort reaction — whose
// condition reads the index fields and whose products carry variables in the
// label position — and executes one swap.
func TestReactionToGraphSwapSort(t *testing.T) {
	swap := mustReaction(t, `S = replace [a, i], [b, j] by [b, i], [a, j] if (i < j) and (a > b)`)
	g, err := ReactionToGraph(swap)
	if err != nil {
		t.Fatal(err)
	}
	set := func(name string, v int64) {
		n := g.NodeByName(name)
		if n == nil {
			t.Fatalf("missing root %s in\n%s", name, dfir.Marshal(g))
		}
		if err := g.SetConst(n.ID, value.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	set("a", 9)
	set("b", 4)
	set("i", 0)
	set("j", 1)
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order pair: both products fire, swapped.
	if v, ok := res.Output("out0"); !ok || v != value.Int(4) {
		t.Errorf("out0 = %v, want 4 (b)", v)
	}
	if v, ok := res.Output("out1"); !ok || v != value.Int(9) {
		t.Errorf("out1 = %v, want 9 (a)", v)
	}
	// In-order pair: the condition gates everything off.
	set("a", 1)
	res, err = dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Errorf("in-order pair should produce nothing: %v", res.Outputs)
	}
}

// TestMapMultisetSwapSort sorts a sequence entirely through dataflow
// instances of the swap reaction.
func TestMapMultisetSwapSort(t *testing.T) {
	swap := mustReaction(t, `S = replace [a, i], [b, j] by [b, i], [a, j] if (i < j) and (a > b)`)
	m := multiset.New()
	input := []int64{5, 3, 4, 1, 2}
	for idx, v := range input {
		m.Add(multiset.Tuple{value.Int(v), value.Int(int64(idx))})
	}
	if _, err := MapMultiset(context.Background(), swap, m, dataflow.Options{}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, len(input))
	m.ForEach(func(t multiset.Tuple, n int) bool {
		got[t[1].AsInt()] = t[0].AsInt()
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("not sorted: %v (multiset %s)", got, m)
		}
	}
}

// TestFig4Replication is experiment E8: an arity-2 reaction over a 6-element
// multiset instantiates exactly 3 subgraph copies, as drawn in Fig. 4.
func TestFig4Replication(t *testing.T) {
	r := mustReaction(t, `R = replace [x, 'a'], [y, 'a'] by [x + y, 'b']`)
	m := multiset.New()
	for i := int64(1); i <= 6; i++ {
		m.Add(multiset.Pair(value.Int(i), "a"))
	}
	res, err := MapMultiset(context.Background(), r, m, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 3 {
		t.Errorf("instances = %d, want 3 (Fig. 4)", res.Instances)
	}
	if m.Len() != 3 {
		t.Errorf("final multiset = %s, want 3 'b' elements", m)
	}
	total := int64(0)
	for _, c := range m.ByLabel("b") {
		total += c.Tuple.Value().AsInt() * int64(c.N)
	}
	if total != 21 {
		t.Errorf("sum of 'b' values = %d, want 21", total)
	}
}

// TestMapMultisetMinElement runs Eq. 2 entirely through dataflow instances:
// the mapper keeps instantiating the min-reaction subgraph until the Gamma
// fixpoint, leaving only the smallest element.
func TestMapMultisetMinElement(t *testing.T) {
	r := mustReaction(t, `R = replace (x, y) by x where x < y`)
	m := multiset.New()
	for _, v := range []int64{9, 4, 7, 1, 8, 3} {
		m.Add(multiset.New1(value.Int(v)))
	}
	res, err := MapMultiset(context.Background(), r, m, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.New1(value.Int(1))) {
		t.Fatalf("result = %s, want {1}", m)
	}
	if res.Instances != 5 {
		t.Errorf("instances = %d, want 5", res.Instances)
	}
}

// TestMapMultisetTaggedSteer checks tag reconstruction through the mapper:
// a steer reaction keeps the matched tag on its products.
func TestMapMultisetTaggedSteer(t *testing.T) {
	r := mustReaction(t, `S = replace [d, 'DAT', v], [c, 'CTL', v]
		by [d, 'T', v] if c == 1
		by 0 else`)
	m := multiset.New(
		multiset.IntElem(42, "DAT", 7),
		multiset.IntElem(1, "CTL", 7),
		multiset.IntElem(99, "DAT", 8),
		multiset.IntElem(0, "CTL", 8),
	)
	if _, err := MapMultiset(context.Background(), r, m, dataflow.Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.IntElem(42, "T", 7)) {
		t.Errorf("result = %s, want {[42, 'T', 7]}", m)
	}
}
