package dfir

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/equiv"
	"repro/internal/paper"
	"repro/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/marshal.golden from this build's Marshal")

// goldenGraphs are the graphs whose canonical text testdata/marshal.golden
// pins: the compiled testdata/*.vn programs, the paper's two figures, and
// 200 random graphs of every vertex kind.
func goldenGraphs(t *testing.T) []*dataflow.Graph {
	files, err := filepath.Glob("../../testdata/*.vn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/*.vn programs: %v", err)
	}
	var gs []*dataflow.Graph
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, compiler.MustCompile(filepath.Base(file), string(src)))
	}
	gs = append(gs, paper.Fig1Graph(), paper.Fig2Graph(), paper.Fig2GraphObservable(10, 4, 3))
	for seed := int64(0); seed < 200; seed++ {
		gs = append(gs, equiv.RandomGraph(seed, 2+int(seed%4), 4+int(seed%13)))
	}
	// Every value kind and rendering the random graphs leave out.
	lits := dataflow.NewGraph("literals")
	for i, v := range []value.Value{value.Str("a b"), value.Str("it's"), value.Str(""), value.Float(2.5),
		value.Float(1e21), value.Float(-3), value.Float(math.Inf(-1)), value.Float(math.NaN()),
		value.Bool(true), value.Int(math.MinInt64)} {
		id := lits.AddConst(fmt.Sprintf("k%d", i), v)
		cp := lits.AddCopy("")
		lits.Connect(id, 0, cp, 0, fmt.Sprintf("k%d.in", i))
		lits.ConnectOut(cp, 0, fmt.Sprintf("k%d.out", i))
	}
	lits.AddCompareImmLeft("cl", "<=", value.Float(0.5))
	lits.AddArithImm("ai", "%", value.Int(-7))
	lits.AddUnary("not", "!")
	lits.AddSetTag("st")
	lits.AddIncTag("it")
	return append(gs, lits)
}

// TestMarshalGolden holds Marshal's output byte-identical to the text the
// golden file was written from, graph by graph.
func TestMarshalGolden(t *testing.T) {
	var b strings.Builder
	for i, g := range goldenGraphs(t) {
		fmt.Fprintf(&b, "## %d\n%s", i, Marshal(g))
	}
	const path = "testdata/marshal.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.SplitAfter(b.String(), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("Marshal differs from %s at line %d (got %d lines, want %d)", path, i+1, len(got), len(wantLines))
		}
	}
}
