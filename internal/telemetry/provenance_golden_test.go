package telemetry_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/value"
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
	sched := rec.Schedule()
	if st.Steps != 3 || len(sched.Steps) != 3 {
		t.Fatalf("steps = %d, firings = %d, want 3 and 3", st.Steps, len(sched.Steps))
	}

	var buf bytes.Buffer
	if err := sched.WriteDOT(&buf); err != nil {
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

// dot renders the firing DAG of a schedule of the given kind built from
// steps, numbered densely.
func dot(t *testing.T, kind string, steps ...replay.Step) string {
	t.Helper()
	for i := range steps {
		steps[i].Step = i + 1
	}
	var buf bytes.Buffer
	if err := (&replay.Schedule{Kind: kind, Steps: steps}).WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestProvenanceThreading(t *testing.T) {
	// x and y consumed from the inputs, z produced then consumed, out left.
	out := dot(t, replay.KindDataflow,
		replay.Step{Name: "R1", Consumed: []string{"x", "y"}, Produced: []string{"z"}},
		replay.Step{Name: "R2", Consumed: []string{"z"}, Produced: []string{"out"}})
	for _, want := range []string{
		`i0 [shape=box`, `label="x"`, `label="y"`,
		`f0 [shape=ellipse, label="R1"]`, `f1 [shape=ellipse, label="R2"]`,
		`o0 [shape=box`, `label="out"`,
		"i0 -> f0;", "i1 -> f0;", "f0 -> f1;", "f1 -> o0;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestProvenanceDuplicateKeysStack(t *testing.T) {
	// Two producers of the same key: consumption unwinds most recent first,
	// mirroring token-queue semantics.
	out := dot(t, replay.KindDataflow,
		replay.Step{Name: "A", Produced: []string{"k"}},
		replay.Step{Name: "B", Produced: []string{"k"}},
		replay.Step{Name: "C", Consumed: []string{"k"}})
	if !strings.Contains(out, "f1 -> f2;") {
		t.Errorf("consumer must attach to the most recent producer:\n%s", out)
	}
	if strings.Contains(out, "f0 -> f2;") {
		t.Errorf("older producer must stay live:\n%s", out)
	}
}

// TestProvenanceLabeler: box labels follow the schedule's kind — a Γ key
// prints as its tuple, a dataflow key as is.
func TestProvenanceLabeler(t *testing.T) {
	a, b := multiset.Pair(value.Int(1), "A1").Key(), multiset.Pair(value.Int(2), "B2").Key()
	step := replay.Step{Name: "R", Consumed: []string{a}, Produced: []string{b}}
	out := dot(t, replay.KindGamma, step)
	if !strings.Contains(out, `label="[1, 'A1']"`) || !strings.Contains(out, `label="[2, 'B2']"`) {
		t.Errorf("Γ keys not printed as tuples:\n%s", out)
	}
	step = replay.Step{Name: "add", Consumed: []string{"e1@0"}, Produced: []string{"e2@0"}}
	if out := dot(t, replay.KindDataflow, step); !strings.Contains(out, `label="e1@0"`) || !strings.Contains(out, `label="e2@0"`) {
		t.Errorf("dataflow keys not left raw:\n%s", out)
	}
}
