package replay

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/value"
)

// foldSchedule derives the two post-run analyses from a schedule: the
// work/span report and the number of initial inputs the provenance DAG found
// (consumed keys with no earlier producer).
func foldSchedule(t *testing.T, s *Schedule) (ProfileReport, int) {
	t.Helper()
	var dot bytes.Buffer
	if err := s.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	// Input vertices are the boxes WriteDOT fills with the input colour.
	return s.Profile(), strings.Count(dot.String(), `fillcolor="#e8f0fe"`)
}

// TestParallelProvenanceDifferential pins that the analyses folded from a
// parallel run's schedule are commit-order exact. A 12-stage pairwise-min
// tournament over n=4096 distinct values has one possible dependency shape —
// n-1 firings, every stage-k firing at depth k+1, 2048 of them at depth 1 and
// exactly the n initial elements as inputs — whatever the interleaving; an
// observer called outside the commit order (a consumer recorded before its
// producer) breaks span, peak width and the input count. Run under -race by
// make stress.
func TestParallelProvenanceDifferential(t *testing.T) {
	const stages, n = 12, 1 << 12
	src := ""
	for i := 0; i < stages; i++ {
		src += fmt.Sprintf("R%d = replace [x, 'L%d'], [y, 'L%d'] by [x, 'L%d'] if x <= y by [y, 'L%d'] else\n", i, i, i, i+1, i+1)
	}
	p, err := gammalang.ParseProgram("tournament", src)
	if err != nil {
		t.Fatal(err)
	}
	init := multiset.New()
	for i := 0; i < n; i++ {
		// An odd multiplier permutes 0..n-1: distinct keys, scrambled order.
		init.Add(multiset.Pair(value.Int(int64(i*2654435761%n)), "L0"))
	}
	for seed := int64(1); seed <= 20; seed++ {
		sched, _ := recordGamma(t, p, init, gamma.Options{Workers: 4, Seed: seed})
		r, inputs := foldSchedule(t, sched)
		if r.Work != n-1 || r.Span != stages || r.PeakWidth != n/2 || inputs != n {
			t.Errorf("seed %d: work=%d span=%d peak=%d inputs=%d, want %d/%d/%d/%d",
				seed, r.Work, r.Span, r.PeakWidth, inputs, n-1, stages, n/2, n)
		}
	}

	// Dataflow: the Fig. 2 loop's report, folded from its FIFO schedule with
	// every dependency level reversed, must equal the one folded from the
	// FIFO order itself.
	g := paper.Fig2Graph()
	seqSched, _ := recordDataflow(t, g, dataflow.Options{})
	want, wantInputs := foldSchedule(t, seqSched)
	if got, inputs := foldSchedule(t, levelReversed(seqSched)); !reflect.DeepEqual(got, want) || inputs != wantInputs {
		t.Errorf("level-reversed report %s (inputs %d), FIFO %s (inputs %d)", got, inputs, want, wantInputs)
	}
}
