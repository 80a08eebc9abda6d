package telemetry_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// TestFig1ProvenanceGolden is the paper's §III-C equivalence as a test: trace
// the Example 1 / Fig. 1 Gamma run, export its provenance DAG, and hold the
// DOT byte-for-byte to the golden rendering of the paper's dataflow graph —
// four operand boxes into the adder and multiplier, both into the subtractor,
// one result box.
func TestFig1ProvenanceGolden(t *testing.T) {
	prog, err := gammalang.ParseProgram("fig1", paper.Example1GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	init, err := multiset.Parse(paper.Example1InitialMultiset)
	if err != nil {
		t.Fatal(err)
	}
	rec := replay.NewRecorder(replay.KindGamma, "fig1")
	st, err := gamma.Run(prog, init, gamma.Options{Schedule: rec})
	if err != nil {
		t.Fatal(err)
	}
	prov := telemetry.NewProvenance()
	prov.Labeler = multiset.PrettyKey
	rec.Schedule().Each(prov.RecordFiring)
	if st.Steps != 3 || prov.Firings() != 3 {
		t.Fatalf("steps = %d, firings = %d, want 3 and 3", st.Steps, prov.Firings())
	}

	var buf bytes.Buffer
	if err := prov.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig1_provenance.dot")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("provenance DOT drifted from the paper's Fig. 1 graph.\n--- got ---\n%s\n--- want ---\n%s\n(run with -update to regenerate)", buf.Bytes(), want)
	}
}
