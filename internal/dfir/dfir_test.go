package dfir

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/paper"
	"repro/internal/value"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	graphs := map[string]*dataflow.Graph{
		"fig1":     paper.Fig1Graph(),
		"fig2":     paper.Fig2Graph(),
		"fig2-obs": paper.Fig2GraphObservable(10, 4, 3),
	}
	for name, g := range graphs {
		text := Marshal(g)
		back, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v\n%s", name, err, text)
		}
		// Canonical form is a fixpoint.
		if text2 := Marshal(back); text2 != text {
			t.Errorf("%s: marshal not canonical:\n%s\nvs\n%s", name, text, text2)
		}
		// Behaviour is preserved.
		r1, err := dataflow.Run(g, dataflow.Options{MaxFirings: 100000})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := dataflow.Run(back, dataflow.Options{MaxFirings: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Outputs, r2.Outputs) {
			t.Errorf("%s: outputs differ after round trip", name)
		}
	}
}

func TestUnmarshalBasic(t *testing.T) {
	src := `
# a comment
graph tiny
const a = 2
const b = 'hi'
arith add + imm 3
unary neg -
edge e1 a:0 -> add:0
edge e2 add:0 -> neg:0
edge o neg:0 -> out
edge so b:0 -> out
`
	g, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Output("o"); v != value.Int(-5) {
		t.Errorf("o = %v, want -5", v)
	}
	if v, _ := res.Output("so"); v != value.Str("hi") {
		t.Errorf("so = %v", v)
	}
}

func TestSetTagRoundTrip(t *testing.T) {
	src := `graph st
const a = 5
inctag inc
settag rst
edge e1 a:0 -> inc:0
edge e2 inc:0 -> rst:0
edge o rst:0 -> out
`
	g, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if Marshal(g) != src {
		t.Errorf("settag not canonical:\n%s", Marshal(g))
	}
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// inctag raises the tag to 1; settag resets it to 0.
	outs := res.Outputs["o"]
	if len(outs) != 1 || outs[0].Tag != 0 || outs[0].Val != value.Int(5) {
		t.Errorf("o = %v, want [5 @ tag 0]", outs)
	}
	if !strings.Contains(ToDOT(g), "invhouse") {
		t.Error("settag DOT shape missing")
	}
}

func TestUnmarshalSteerPorts(t *testing.T) {
	src := `graph st
const d = 9
const c = 1
steer s
edge e1 d:0 -> s:0
edge e2 c:0 -> s:1
edge t s:true -> out
edge f s:false -> out
`
	g, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Output("t"); !ok || v != value.Int(9) {
		t.Errorf("t = %v", v)
	}
	if _, ok := res.Output("f"); ok {
		t.Error("f should be empty")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		"",
		"const a = 1",                             // no graph directive
		"graph g\ngraph h",                        // duplicate directive
		"graph g\nconst a",                        // malformed const
		"graph g\nconst a = @",                    // bad literal
		"graph g\nwhat a",                         // unknown directive
		"graph g\nconst a = 1\nconst a = 2",       // duplicate node
		"graph g\narith x",                        // malformed arith
		"graph g\narith x + imq 1",                // bad imm keyword
		"graph g\nsteer",                          // malformed steer
		"graph g\nunary u",                        // malformed unary
		"graph g\nedge e a:0 -> b:0",              // unknown nodes
		"graph g\nconst a = 1\nedge e a -> out",   // missing port
		"graph g\nconst a = 1\nedge e a:x -> out", // bad port
		"graph g\nconst a = 1\nedge e a:0 b:0",    // missing arrow
		"graph g\nconst a = 1",                    // no edges; const with no out is valid though...
	}
	for _, src := range bad[:len(bad)-1] {
		if _, err := Unmarshal(src); err == nil {
			t.Errorf("Unmarshal(%q) should error", src)
		}
	}
}

// TestUnmarshalRejectsEndpoints: a port is a whole decimal number (or a
// steer's true/false); trailing text or another base is an error, not the
// digits a scan happens to read first.
func TestUnmarshalRejectsEndpoints(t *testing.T) {
	const src = "graph g\nconst a = 1\nunary n -\nedge e %s -> %s\nedge o n:0 -> out\n"
	if _, err := Unmarshal(fmt.Sprintf(src, "a:0", "n:0")); err != nil {
		t.Fatalf("the well-formed graph: %v", err)
	}
	for _, c := range []struct{ from, to string }{
		{"a:0abc", "n:0"},
		{"a:0x0", "n:0"},
		{"a:00x", "n:0"},
		{"a:", "n:0"},
		{"a:0.0", "n:0"},
		{"a:0", "n:0abc"},
		{"a:0", "n:0x0"},
		{"a:0", "n:"},
	} {
		if _, err := Unmarshal(fmt.Sprintf(src, c.from, c.to)); err == nil {
			t.Errorf("edge %s -> %s: accepted", c.from, c.to)
		}
	}
}

func TestToDOTShapes(t *testing.T) {
	dot := ToDOT(paper.Fig2Graph())
	for _, want := range []string{
		"digraph", "shape=box", "shape=triangle", "shape=diamond", "shape=ellipse",
		"taillabel=\"T\"", "label=\"B12\"",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	dotObs := ToDOT(paper.Fig2GraphObservable(1, 1, 1))
	if !strings.Contains(dotObs, "shape=point") {
		t.Error("output edges should render as points")
	}
	if !strings.Contains(dotObs, "taillabel=\"F\"") {
		t.Error("false port should be tagged")
	}
	// Immediate operands render inline.
	if !strings.Contains(dot, "_ > 0") {
		t.Errorf("immediate comparison not rendered:\n%s", dot)
	}
}

func TestStats(t *testing.T) {
	s := Stats(paper.Fig1Graph())
	for _, want := range []string{"const=4", "arith=3", "edges=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats = %q, missing %q", s, want)
		}
	}
}

func TestSplitFieldsQuoted(t *testing.T) {
	got := splitFields("const a = 'hello world'")
	want := []string{"const", "a", "=", "'hello world'"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitFields = %v", got)
	}
}

// FuzzUnmarshal feeds the decoder every dataflow submission to gammad passes
// through arbitrary text. It must never panic, and whatever it accepts has a
// canonical form: Marshal of the decoded graph decodes again and marshals to
// the same bytes. Seeded with the compiled testdata/*.vn programs, the
// paper's figures and the service tests' graphs.
func FuzzUnmarshal(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.vn")
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(Marshal(compiler.MustCompile(file, string(src))))
	}
	for _, g := range []*dataflow.Graph{paper.Fig1Graph(), paper.Fig2GraphObservable(10, 4, 3)} {
		f.Add(Marshal(g))
	}
	for _, seed := range []string{
		"graph g\nconst x = 3\nconst y = 4\narith add +\nedge a x:0 -> add:0\nedge b y:0 -> add:1\nedge m add:0 -> out\n",
		"graph spin\nconst c = 1\ninctag inc\ncopy cp\nedge seed c:0 -> inc:0\nedge fwd inc:0 -> cp:0\nedge back cp:0 -> inc:0\n",
		"graph g\nconst c 1\nout c m\n",
		"graph q\nconst s = 'a b'\ncompare lt < immleft 2.5\nsteer st\nsettag z\nunary n -\n# comment\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Unmarshal(src)
		if err != nil {
			return
		}
		text := Marshal(g)
		back, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("Unmarshal(%q) marshals to text that does not decode: %v\n%s", src, err, text)
		}
		if again := Marshal(back); again != text {
			t.Fatalf("Unmarshal(%q): marshal not canonical:\n%s\nvs\n%s", src, text, again)
		}
	})
}
