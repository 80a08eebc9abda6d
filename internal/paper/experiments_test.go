package paper

import (
	"context"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/value"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks and the testdata figures from this build")

// experiments is every runnable experiment of EXPERIMENTS.md. Each renders
// the deterministic part of its experiment — outputs, steps, firings,
// instances, verdicts, work/span profiles; nothing is timed — and the file
// holds that text verbatim between `<!-- id -->` and `<!-- /id -->`.
var experiments = []struct {
	id  string
	run func(t *testing.T) string
}{
	{"E1", expE1}, {"E3", expE3}, {"E4", expE4}, {"E5", expE5}, {"E7", expE7},
	{"E8", expE8}, {"E9", expE9}, {"E11", expE11}, {"E15", expE15},
}

// TestExperiments regenerates every experiment and compares it byte for byte
// with its block in EXPERIMENTS.md; -update rewrites the blocks instead.
func TestExperiments(t *testing.T) {
	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	trailing := regexp.MustCompile(`(?m) +$`) // a table's last-column padding
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatal(r)
				}
			}()
			open, end := "<!-- "+e.id+" -->\n", "<!-- /"+e.id+" -->"
			i, j := strings.Index(text, open), strings.Index(text, end)
			if i < 0 || j < i {
				t.Fatalf("EXPERIMENTS.md has no %q … %q block", open, end)
			}
			i += len(open)
			got := "```\n" + trailing.ReplaceAllString(e.run(t), "") + "```\n"
			if *update {
				text = text[:i] + got + text[j:]
			} else if want := text[i:j]; got != want {
				t.Errorf("EXPERIMENTS.md's %s block is stale (-update rewrites it):\n--- EXPERIMENTS.md\n%s--- this build\n%s",
					e.id, want, got)
			}
		})
	}
	if *update && text != string(doc) {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFigure holds a committed figure under testdata/ to the text this
// build derives from the paper's graph. The CLIs render the rest of each
// figure from it: `dfrun -dot` the DOT, `df2gamma` the Algorithm 1 listing.
func checkFigure(t *testing.T, name, got string) {
	path := filepath.Join("../../testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(path); err != nil || string(want) != got {
		t.Errorf("%s is not dfir.Marshal of the paper's graph (-update rewrites it): %v", path, err)
	}
}

// must unwraps a result the experiment cannot go on without; TestExperiments
// turns its panic into the subtest's failure.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func toGamma(t *testing.T, g *dataflow.Graph) (*gamma.Program, *multiset.Multiset) {
	t.Helper()
	prog, init, err := core.ToGamma(g)
	if err != nil {
		t.Fatal(err)
	}
	return prog, init
}

// example1Instances is n independent copies of Example 1's inputs, all on
// tag 0: the workload of the granularity trade-off.
func example1Instances(n int) *multiset.Multiset {
	m := multiset.New()
	for i := 0; i < n; i++ {
		m.Add(multiset.Pair(value.Int(int64(i)), "A1"))
		m.Add(multiset.Pair(value.Int(5), "B1"))
		m.Add(multiset.Pair(value.Int(3), "C1"))
		m.Add(multiset.Pair(value.Int(2), "D1"))
	}
	return m
}

// expE1: Example 1 through the Fig. 1 graph, its Algorithm 1 conversion and
// the paper's own listing.
func expE1(t *testing.T) string {
	checkFigure(t, "fig1.dfir", dfir.Marshal(Fig1Graph()))
	tb := telemetry.NewTable("Example 1: m = (x+y)-(k*j), inputs 1,5,3,2",
		"pipeline", "m", "reactions", "firings/steps")
	res := must(dataflow.Run(Fig1Graph(), dataflow.Options{}))
	m, _ := res.Output("m")
	tb.Row("dataflow (Fig. 1 graph)", m, "-", res.Firings)
	prog, init := toGamma(t, Fig1Graph())
	st := must(gamma.Run(prog, init, gamma.Options{}))
	tb.Row("gamma (Algorithm 1 output)", init, len(prog.Reactions), st.Steps)
	listing := must(gammalang.ParseProgram("ex1", Example1GammaListing))
	lm := must(multiset.Parse(Example1InitialMultiset))
	st = must(gamma.Run(listing, lm, gamma.Options{}))
	tb.Row("gamma (paper listing R1-R3)", lm, len(listing.Reactions), st.Steps)
	// On 1,5,3,2 both products are 6, so an operand order swapped at the '-'
	// would not show; on 2,5,3,1 they are 7 and 3.
	res = must(dataflow.Run(Fig1GraphWith(2, 5, 3, 1), dataflow.Options{}))
	m, _ = res.Output("m")
	tb.Row("dataflow, inputs 2,5,3,1", m, "-", res.Firings)
	prog, init = toGamma(t, Fig1GraphWith(2, 5, 3, 1))
	st = must(gamma.Run(prog, init, gamma.Options{}))
	tb.Row("gamma (Alg. 1), inputs 2,5,3,1", init, len(prog.Reactions), st.Steps)
	return tb.String()
}

// expE3: the Example 2 loop for several z in both models, and the faithful
// Fig. 2, whose steers discard everything on exit.
func expE3(t *testing.T) string {
	checkFigure(t, "fig2.dfir", dfir.Marshal(Fig2Graph()))
	checkFigure(t, "fig2-observable.dfir", dfir.Marshal(Fig2GraphObservable(10, 4, 3)))
	tb := telemetry.NewTable("Example 2: for(i=z; i>0; i--) x=x+y, x=10 y=4",
		"z", "dataflow xout", "gamma xout", "firings", "steps", "stable multiset size")
	for _, z := range []int64{0, 1, 3, 10, 25} {
		g := Fig2GraphObservable(10, 4, z)
		res := must(dataflow.Run(g, dataflow.Options{MaxFirings: 1_000_000}))
		prog, init := toGamma(t, g)
		st := must(gamma.Run(prog, init, gamma.Options{MaxSteps: 1_000_000}))
		dfOut, _ := res.Output("xout")
		var gmOut value.Value
		if outs := core.OutputsFromMultiset(init, []string{"xout"})["xout"]; len(outs) > 0 {
			gmOut = outs[0].Val
		}
		tb.Row(z, dfOut, gmOut, res.Firings, st.Steps, init.Len())
	}
	prog, init := toGamma(t, Fig2Graph())
	must(gamma.Run(prog, init, gamma.Options{MaxSteps: 1_000_000}))
	return tb.String() + fmt.Sprintf("faithful Fig. 2 (all steers discard on exit): stable multiset = %s\n", init)
}

// expE4: Eq. 2 over growing multisets, each checked against its minimum.
func expE4(t *testing.T) string {
	prog := must(gammalang.ParseProgram("min", MinElementListing))
	tb := telemetry.NewTable("Eq. 2: R = replace(x,y) by x where x < y", "n", "min", "steps")
	for _, n := range []int{10, 100, 400} {
		m := multiset.New()
		want := int64(1 << 40)
		for i := 0; i < n; i++ {
			v := int64((i*2654435761 + 17) % (4 * n))
			want = min(want, v)
			m.Add(multiset.New1(value.Int(v)))
		}
		st := must(gamma.Run(prog, m, gamma.Options{}))
		if !m.Contains(multiset.New1(value.Int(want))) {
			t.Errorf("n=%d: stable multiset %s lacks the minimum %d", n, m, want)
		}
		tb.Row(n, m, st.Steps)
	}
	return tb.String()
}

// expE5: the reducer derives Rd1 from R1–R3; both run over n independent
// Example 1 instances.
func expE5(t *testing.T) string {
	full := must(gammalang.ParseProgram("full", Example1GammaListing))
	reduced, fused, err := core.Reduce(full)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "reducer fused %d chains: %d reactions -> %d\n", fused, len(full.Reactions), len(reduced.Reactions))
	for _, r := range reduced.Reactions {
		fmt.Fprintf(&b, "derived reaction, arity %d:\n%s", r.Arity(), gammalang.FormatReaction(r))
	}
	tb := telemetry.NewTable("granularity: full (3 reactions) vs reduced (Rd1)", "instances", "variant", "steps")
	for _, n := range []int{1, 8, 32} {
		for _, v := range []struct {
			name string
			prog *gamma.Program
		}{{"full", full}, {"reduced", reduced}} {
			st := must(gamma.Run(v.prog, example1Instances(n), gamma.Options{}))
			tb.Row(n, v.name, st.Steps)
		}
	}
	return b.String() + tb.String()
}

// expE7: every listing of the paper under the Fig. 3 grammar.
func expE7(t *testing.T) string {
	tb := telemetry.NewTable("Fig. 3 grammar over the paper's listings", "listing", "reactions", "status")
	for _, l := range []struct{ name, src string }{
		{"Example 1 (R1-R3)", Example1GammaListing},
		{"Example 2 (R11-R19)", Example2GammaListing},
		{"Reduced Example 1 (Rd1)", ReducedExample1Listing},
		{"Reduced Example 2 (Rd11-Rd16)", ReducedExample2Listing},
		{"Eq. 2 (min element)", MinElementListing},
	} {
		if f, err := gammalang.ParseFile(l.src); err != nil {
			tb.Row(l.name, "-", err)
		} else {
			tb.Row(l.name, len(f.Reactions), "ok")
		}
	}
	return tb.String()
}

// expE8: Fig. 4's reaction (testdata/fig4.reaction) mapped over n elements
// by instance replication.
func expE8(t *testing.T) string {
	src := must(os.ReadFile("../../testdata/fig4.reaction"))
	r := must(gammalang.ParseReaction(string(src)))
	tb := telemetry.NewTable("Fig. 4: arity-2 reaction mapped over n elements",
		"elements", "instances", "final size", "vertex firings")
	for _, n := range []int{6, 12, 60} {
		m := multiset.New()
		for i := 0; i < n; i++ {
			m.Add(multiset.Pair(value.Int(int64(i+1)), "a"))
		}
		res := must(core.MapMultiset(context.Background(), r, m, dataflow.Options{}))
		tb.Row(n, res.Instances, m.Len(), res.Firings)
	}
	return tb.String()
}

// expE9: Algorithm 1 equivalence over seeded random graphs.
func expE9(t *testing.T) string {
	tb := telemetry.NewTable("Algorithm 1 equivalence on random graphs",
		"seed", "operators", "equivalent", "firings=steps")
	ok := 0
	for seed := int64(1); seed <= 20; seed++ {
		g := equiv.RandomGraph(seed, 4, 8+int(seed))
		rep := must(equiv.Check(g, equiv.Options{MaxSteps: 1_000_000}))
		if rep.Equivalent {
			ok++
		}
		tb.Row(seed, len(g.Nodes), rep.Equivalent, fmt.Sprintf("%d=%d", rep.OperatorFirings, rep.ReactionSteps))
	}
	return tb.String() + fmt.Sprintf("%d/20 random graphs equivalent\n", ok)
}

// expE11: the §III-C correspondences on the paper's graphs and a compiled
// loop. The verdict includes the stuck-operand check: the dataflow run's
// pending operands equal the stable multiset's non-output elements.
func expE11(t *testing.T) string {
	tb := telemetry.NewTable("§III-C: operator firings = reaction steps, stuck operands = residual elements",
		"program", "operator firings", "reaction steps", "pending", "equivalent")
	sumsq := must(compiler.Compile("sumsq", `int i; int s = 0; for (i = 10; i > 0; i--) s = s + i * i; output s;`))
	for _, p := range []struct {
		name string
		g    *dataflow.Graph
	}{
		{"Fig. 1", Fig1Graph()},
		{"Fig. 2 faithful", Fig2Graph()},
		{"Fig. 2 observable", Fig2GraphObservable(10, 4, 5)},
		{"compiled sum-of-squares", sumsq},
	} {
		rep := must(equiv.Check(p.g, equiv.Options{MaxSteps: 1_000_000}))
		res := must(dataflow.Run(p.g, dataflow.Options{MaxFirings: 1_000_000}))
		tb.Row(p.name, rep.OperatorFirings, rep.ReactionSteps, res.Pending, rep.Equivalent)
	}
	return tb.String()
}

func profileGamma(p *gamma.Program, m *multiset.Multiset, opt gamma.Options) replay.ProfileReport {
	rec := replay.NewRecorder(replay.KindGamma, p.Name)
	opt.Schedule = rec
	must(gamma.Run(p, m, opt))
	return rec.Schedule().Profile()
}

func profileGraph(g *dataflow.Graph) replay.ProfileReport {
	rec := replay.NewRecorder(replay.KindDataflow, g.Name)
	must(dataflow.Run(g, dataflow.Options{MaxFirings: 1_000_000, Schedule: rec}))
	return rec.Schedule().Profile()
}

// expE15: work, span and average parallelism of the paper's programs in both
// models, folded from each run's recorded schedule.
func expE15(t *testing.T) string {
	tb := telemetry.NewTable("work / span / average parallelism (ideal-scheduler bounds)",
		"program", "model", "work", "span", "parallelism", "peak width")
	row := func(name, model string, r replay.ProfileReport) {
		tb.Row(name, model, r.Work, r.Span, r.Parallelism, r.PeakWidth)
	}
	row("Fig. 1", "dataflow", profileGraph(Fig1Graph()))
	prog, init := toGamma(t, Fig1Graph())
	row("Fig. 1", "gamma", profileGamma(prog, init, gamma.Options{}))

	// Full vs reduced Example 1 over 16 independent instances: the reduced
	// form does each instance in one firing.
	full := must(gammalang.ParseProgram("full", Example1GammaListing))
	reduced, _, err := core.Reduce(full)
	if err != nil {
		t.Fatal(err)
	}
	row("Example 1 x16 (full R1-R3)", "gamma", profileGamma(full, example1Instances(16), gamma.Options{}))
	row("Example 1 x16 (reduced Rd1)", "gamma", profileGamma(reduced, example1Instances(16), gamma.Options{}))

	for _, z := range []int64{4, 16} {
		row(fmt.Sprintf("Fig. 2 loop z=%d", z), "dataflow", profileGraph(Fig2GraphObservable(10, 4, z)))
	}

	minProg := must(gammalang.ParseProgram("min", MinElementListing))
	m := multiset.New()
	for i := int64(1); i <= 64; i++ {
		m.Add(multiset.New1(value.Int(i)))
	}
	row("Eq. 2 min over 64", "gamma", profileGamma(minProg, m, gamma.Options{Seed: 3}))
	return tb.String()
}

// TestDocsCiteKnownExperiments keeps the prose honest, so that neither the
// docs nor a comment can cite a deleted experiment or test:
//   - every prose id E<n> (as in "EXPERIMENTS.md E5") in README, DESIGN,
//     EXPERIMENTS and any Go file outside bench/ (its own module) has a row
//     in DESIGN.md's §3 index, and so does every runnable experiment;
//   - every TestExperiments/E<n> there names a subtest of TestExperiments;
//   - every Test… or Benchmark… name in DESIGN.md §3 and EXPERIMENTS.md is
//     a func of the tree's tests, a trailing * read as a prefix.
func TestDocsCiteKnownExperiments(t *testing.T) {
	const root = "../.."
	read := func(rel string) string {
		text, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}
	design := read("DESIGN.md")
	indexed, live := map[string]bool{}, map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (E[0-9]+) \|`).FindAllStringSubmatch(design, -1) {
		indexed[m[1]] = true
	}
	for _, e := range experiments {
		live[e.id] = true
		if !indexed[e.id] {
			t.Errorf("experiment %s has no row in DESIGN.md §3", e.id)
		}
	}
	prose := regexp.MustCompile(`\bE[0-9]+\b`)
	subtest := regexp.MustCompile(`TestExperiments/(E[0-9]+)`)
	files := 0
	checkIDs := func(doc, text string) {
		for _, id := range prose.FindAllString(text, -1) {
			if !indexed[id] {
				t.Errorf("%s cites %s, which DESIGN.md §3 does not index", doc, id)
			}
		}
		for _, m := range subtest.FindAllStringSubmatch(text, -1) {
			if !live[m[1]] {
				t.Errorf("%s cites %s, which is no subtest of TestExperiments", doc, m[0])
			}
		}
		files++
	}

	funcs := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() && (rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(rel, ".go") {
			return nil
		}
		text := read(rel)
		for _, m := range testFunc.FindAllStringSubmatch(text, -1) {
			funcs[m[1]] = true
		}
		checkIDs(rel, text)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	experimentsDoc := read("EXPERIMENTS.md")
	for doc, text := range map[string]string{"README.md": read("README.md"), "DESIGN.md": design, "EXPERIMENTS.md": experimentsDoc} {
		checkIDs(doc, text)
	}

	i, j := strings.Index(design, "\n## 3."), strings.Index(design, "\n## 4.")
	if i < 0 || j < i {
		t.Fatal("DESIGN.md has no §3 before its §4")
	}
	section3 := design[i:j]
	name := regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z0-9_]\w*\*?`)
	for doc, text := range map[string]string{"DESIGN.md §3": section3, "EXPERIMENTS.md": experimentsDoc} {
		for _, n := range name.FindAllString(text, -1) {
			found := funcs[n]
			if prefix, ok := strings.CutSuffix(n, "*"); ok {
				for f := range funcs {
					found = found || strings.HasPrefix(f, prefix)
				}
			}
			if !found {
				t.Errorf("%s cites %s, which no test file defines", doc, n)
			}
		}
	}
	t.Logf("%d files checked for experiment citations, %d test funcs", files, len(funcs))
}
