package profile

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/value"
)

// gammaReport runs p on m with a schedule recorder and folds the
// commit-ordered schedule into its report.
func gammaReport(t *testing.T, p *gamma.Program, m *multiset.Multiset, opt gamma.Options) Report {
	t.Helper()
	rec := replay.NewRecorder(replay.KindGamma, p.Name)
	opt.Schedule = rec
	if _, err := gamma.Run(p, m, opt); err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	rec.Schedule().Each(col.RecordFiring)
	return col.Report()
}

// dataflowReport is gammaReport for a dataflow graph.
func dataflowReport(t *testing.T, g *dataflow.Graph, opt dataflow.Options) Report {
	t.Helper()
	rec := replay.NewRecorder(replay.KindDataflow, g.Name)
	opt.Schedule = rec
	if _, err := dataflow.Run(g, opt); err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	rec.Schedule().Each(col.RecordFiring)
	return col.Report()
}

func TestCollectorManual(t *testing.T) {
	c := NewCollector()
	// Diamond: a and b independent, c consumes both.
	c.RecordFiring("a", nil, []string{"x"})
	c.RecordFiring("b", nil, []string{"y"})
	c.RecordFiring("c", []string{"x", "y"}, []string{"z"})
	r := c.Report()
	if r.Work != 3 || r.Span != 2 {
		t.Fatalf("work=%d span=%d, want 3/2", r.Work, r.Span)
	}
	if r.Parallelism != 1.5 || r.PeakWidth != 2 {
		t.Errorf("parallelism=%v peak=%d", r.Parallelism, r.PeakWidth)
	}
	if len(r.Profile) != 2 || r.Profile[0] != 2 || r.Profile[1] != 1 {
		t.Errorf("profile = %v", r.Profile)
	}
	if r.PerName["a"] != 1 || r.PerName["c"] != 1 {
		t.Errorf("per-name = %v", r.PerName)
	}
	if !strings.Contains(r.String(), "work=3 span=2") {
		t.Errorf("render: %s", r)
	}
	if rr := NewCollector().Report(); rr.Work != 0 || rr.Span != 0 || rr.Parallelism != 0 {
		t.Errorf("empty collector: %+v", rr)
	}
}

func TestDuplicateKeysStack(t *testing.T) {
	c := NewCollector()
	// Two producers of the same key (multiset multiplicity), two consumers.
	c.RecordFiring("p1", nil, []string{"k"})
	c.RecordFiring("p2", []string{"k"}, []string{"k"}) // depth 2, k restacked
	c.RecordFiring("c1", []string{"k"}, nil)           // consumes p2's k: depth 3
	r := c.Report()
	if r.Span != 3 {
		t.Errorf("span = %d, want 3 (chained through duplicate key)", r.Span)
	}
}

func TestFig1DataflowSpan(t *testing.T) {
	r := dataflowReport(t, paper.Fig1Graph(), dataflow.Options{})
	// consts at depth 1, R1/R2 at depth 2, R3 at depth 3.
	if r.Work != 7 || r.Span != 3 {
		t.Fatalf("work=%d span=%d, want 7/3 (%s)", r.Work, r.Span, r)
	}
	if r.PeakWidth != 4 { // the four const firings
		t.Errorf("peak = %d, want 4", r.PeakWidth)
	}
}

func TestFig1GammaSpan(t *testing.T) {
	prog, init, err := core.ToGamma(paper.Fig1Graph())
	if err != nil {
		t.Fatal(err)
	}
	r := gammaReport(t, prog, init, gamma.Options{})
	// R1 and R2 at depth 1 (consuming initial elements), R3 at depth 2.
	if r.Work != 3 || r.Span != 2 {
		t.Fatalf("work=%d span=%d, want 3/2 (%s)", r.Work, r.Span, r)
	}
	if r.Parallelism != 1.5 {
		t.Errorf("parallelism = %v", r.Parallelism)
	}
}

// TestReductionShrinksSpan quantifies §III-A3: Rd1 does Example 1 in span 1,
// the full program needs span 2 — the reduction trades parallelism away.
func TestReductionShrinksSpan(t *testing.T) {
	full, err := gammalang.ParseProgram("full", paper.Example1GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	reduced, _, err := core.Reduce(full)
	if err != nil {
		t.Fatal(err)
	}
	span := func(p *gamma.Program) (int64, int64) {
		m, err := multiset.Parse(paper.Example1InitialMultiset)
		if err != nil {
			t.Fatal(err)
		}
		r := gammaReport(t, p, m, gamma.Options{})
		return r.Work, r.Span
	}
	fw, fs := span(full)
	rw, rs := span(reduced)
	if fw != 3 || fs != 2 {
		t.Errorf("full: work=%d span=%d, want 3/2", fw, fs)
	}
	if rw != 1 || rs != 1 {
		t.Errorf("reduced: work=%d span=%d, want 1/1", rw, rs)
	}
}

func TestLoopSpanGrowsWithIterations(t *testing.T) {
	spanFor := func(z int64) int64 {
		g := paper.Fig2GraphObservable(10, 4, z)
		return dataflowReport(t, g, dataflow.Options{MaxFirings: 100000}).Span
	}
	s2, s8 := spanFor(2), spanFor(8)
	if s8 <= s2 {
		t.Errorf("span should grow with iterations: z=2 -> %d, z=8 -> %d", s2, s8)
	}
	// The loop is inherently sequential: span grows linearly, roughly 5-6
	// firings per iteration on the critical path.
	if s8 < 30 {
		t.Errorf("z=8 span = %d, expected a long sequential chain", s8)
	}
}

func TestParallelRuntimesProduceSameWork(t *testing.T) {
	// Tracing under the parallel Gamma runtime, and the dataflow run with
	// its level count: same work, and the span must match the sequential one
	// (dependencies are schedule-independent for this confluent program).
	prog, init, err := core.ToGamma(paper.Fig1Graph())
	if err != nil {
		t.Fatal(err)
	}
	r := gammaReport(t, prog, init.Clone(), gamma.Options{Workers: 4, Seed: 3})
	if r.Work != 3 || r.Span != 2 {
		t.Errorf("parallel gamma: %s, want work=3 span=2", r)
	}
	if r2 := dataflowReport(t, paper.Fig1Graph(), dataflow.Options{}); r2.Work != 7 || r2.Span != 3 {
		t.Errorf("dataflow: %s, want work=7 span=3", r2)
	}
}

// TestMinElementSpanLogarithmicIdeal: with nondeterministic pairing the min
// reduction has span between log2(n) (balanced tournament) and n-1 (chain).
func TestMinElementSpan(t *testing.T) {
	prog, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		t.Fatal(err)
	}
	m := multiset.New()
	for i := int64(1); i <= 32; i++ {
		m.Add(multiset.New1(value.Int(i)))
	}
	r := gammaReport(t, prog, m, gamma.Options{Seed: 5})
	if r.Work != 31 {
		t.Errorf("work = %d, want 31", r.Work)
	}
	if r.Span < 5 || r.Span > 31 {
		t.Errorf("span = %d, want within [log2(32), 31]", r.Span)
	}
}
