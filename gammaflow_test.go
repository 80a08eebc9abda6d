package gammaflow

import (
	"strings"
	"testing"

	"repro/internal/paper"
)

// TestPublicAPIQuickstart is the README quick-start, end to end through the
// façade only.
func TestPublicAPIQuickstart(t *testing.T) {
	g, err := CompileSource("ex1", `
		int x = 1; int y = 5; int k = 3; int j = 2; int m;
		m = (x + y) - (k * j);`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGraph(g, GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := res.Output("m"); !ok || m != Int(0) {
		t.Fatalf("m = %v, want 0", m)
	}
	prog, init, err := ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(prog, init, ProgramOptions{}); err != nil {
		t.Fatal(err)
	}
	out := OutputsFromMultiset(init, []string{"m"})
	if len(out["m"]) != 1 || out["m"][0].Val != Int(0) {
		t.Fatalf("gamma m = %v", out["m"])
	}
}

func TestPublicAPIGammaSource(t *testing.T) {
	prog, err := ParseProgram("min", `R = replace (x, y) by x where x < y`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMultiset(ScalarElem(Int(5)), ScalarElem(Int(2)), ScalarElem(Int(9)))
	stats, err := RunProgram(prog, m, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(ScalarElem(Int(2))) || stats.Steps != 2 {
		t.Fatalf("result = %s, steps = %d", m, stats.Steps)
	}
	if !strings.Contains(FormatProgram(prog), "replace") {
		t.Error("FormatProgram output malformed")
	}
}

func TestPublicAPIEquivalence(t *testing.T) {
	rep, err := CheckEquivalence(RandomGraph(11, 3, 16), EquivOptions{MaxSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("mismatches: %v", rep.Mismatches)
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	g := paper.Fig2GraphObservable(10, 4, 3)
	prog, init, err := ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ProgramToGraph("back", prog, init.Clone())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGraph(back, GraphOptions{RunConfig: RunConfig{RunSpec: RunSpec{MaxSteps: 100000}}})
	if err != nil {
		t.Fatal(err)
	}
	if x, ok := res.Output("xout"); !ok || x != Int(22) {
		t.Fatalf("xout = %v, want 22", x)
	}
}

func TestPublicAPIGraphFormats(t *testing.T) {
	g := paper.Fig1Graph()
	text := MarshalGraph(g)
	back, err := UnmarshalGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	if MarshalGraph(back) != text {
		t.Error("dfir round trip not canonical")
	}
	if !strings.Contains(GraphToDOT(g), "digraph") {
		t.Error("DOT export malformed")
	}
}

func TestPublicAPIReduce(t *testing.T) {
	prog, err := ParseProgram("ex1", paper.Example1GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	reduced, fused, err := Reduce(prog)
	if err != nil || fused != 2 || len(reduced.Reactions) != 1 {
		t.Fatalf("reduce: %v fused=%d", err, fused)
	}
	m, err := ParseMultiset(paper.Example1InitialMultiset)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunProgram(reduced, m, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 1 {
		t.Errorf("reduced program took %d steps, want 1", st.Steps)
	}
}
