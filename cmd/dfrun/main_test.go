package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/replay"
	"repro/internal/rt"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const fig1ish = `graph g
const x = 1
const y = 5
arith add +
edge a x:0 -> add:0
edge b y:0 -> add:1
edge m add:0 -> out
`

func TestRunDfir(t *testing.T) {
	path := writeTemp(t, "g.dfir", fig1ish)
	if err := run(context.Background(), io.Discard, path, &cli.TelemetryFlags{}, "", 1000, "", false, false); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), io.Discard, path, &cli.TelemetryFlags{}, "parallel", 1000, "", false, false); err != nil {
		t.Fatalf("engine parallel, run sequentially: %v", err)
	}
	if err := run(context.Background(), io.Discard, path, &cli.TelemetryFlags{}, "", 1000, "", false, true); err != nil {
		t.Fatalf("profile mode: %v", err)
	}
	if err := run(context.Background(), io.Discard, path, &cli.TelemetryFlags{}, "matrix", 1000, "", false, false); err != nil {
		t.Fatalf("engine matrix, run sequentially: %v", err)
	}
	if err := run(context.Background(), io.Discard, path, &cli.TelemetryFlags{}, "quantum", 1000, "", false, false); !errors.Is(err, rt.ErrInvalid) {
		t.Fatalf("unknown engine not rejected as invalid: %v", err)
	}
}

func TestRunCompileAndDot(t *testing.T) {
	src := writeTemp(t, "p.vn", `int a = 2; int b; b = a * a + 1;`)
	dot := filepath.Join(t.TempDir(), "out.dot")
	if err := run(context.Background(), io.Discard, src, &cli.TelemetryFlags{}, "", 1000, dot, true, false); err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "digraph") {
		t.Error("DOT file malformed")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), io.Discard, "/nonexistent", &cli.TelemetryFlags{}, "", 0, "", false, false); err == nil {
		t.Error("missing file should error")
	}
	bad := writeTemp(t, "bad.dfir", "nonsense")
	if err := run(context.Background(), io.Discard, bad, &cli.TelemetryFlags{}, "", 0, "", false, false); err == nil {
		t.Error("bad dfir should error")
	}
	badSrc := writeTemp(t, "bad.vn", "x = 1;")
	if err := run(context.Background(), io.Discard, badSrc, &cli.TelemetryFlags{}, "", 0, "", true, false); err == nil {
		t.Error("bad source should error")
	}
	good := writeTemp(t, "g.dfir", fig1ish)
	if err := run(context.Background(), io.Discard, good, &cli.TelemetryFlags{}, "", 0, "/no/such/dir/out.dot", false, false); err == nil {
		t.Error("unwritable DOT path should error")
	}
}

// levelReversed returns the dataflow schedule s with the steps of each
// dependency level in reverse order. A step's level is one more than its
// deepest producer's in the firing DAG (Sources; a const is level 0), so
// every step still follows its producers: a linearisation the FIFO schedule
// never produces. Steps keep their recorded Seq and are renumbered densely.
func levelReversed(s *replay.Schedule) *replay.Schedule {
	level := make([]int, len(s.Steps))
	for i, srcs := range s.Sources() {
		for _, src := range srcs {
			if src.Step >= 0 {
				level[i] = max(level[i], level[src.Step]+1)
			}
		}
	}
	order := make([]int, len(s.Steps))
	for i := range order {
		order[i] = len(order) - 1 - i
	}
	sort.SliceStable(order, func(a, b int) bool { return level[order[a]] < level[order[b]] })
	out := &replay.Schedule{Kind: s.Kind, Name: s.Name, Steps: make([]replay.Step, len(order))}
	for i, j := range order {
		out.Steps[i] = s.Steps[j]
		out.Steps[i].Step = i + 1
	}
	return out
}

// TestRecordReplayLoop drives the CLI's record/replay surface: a run recorded
// with -trace-format schedule replays clean against the same graph, so does
// that schedule with every dependency level reversed (a linearisation other
// than the FIFO one), and a tampered schedule diverges with exit-3
// classification.
func TestRecordReplayLoop(t *testing.T) {
	path := writeTemp(t, "g.dfir", fig1ish)
	sched := filepath.Join(t.TempDir(), "sched.jsonl")
	tel := &cli.TelemetryFlags{Trace: sched, TraceFormat: "schedule"}
	if err := tel.Start(replay.KindDataflow); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), io.Discard, path, tel, "", 1000, "", false, false); err != nil {
		t.Fatal(err)
	}
	if err := tel.Finish(); err != nil {
		t.Fatal(err)
	}

	if err := replayRun(io.Discard, path, sched, false); err != nil {
		t.Fatalf("faithful replay: %v", err)
	}

	raw, err := os.ReadFile(sched)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := replay.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	reversed := levelReversed(recorded).Bytes()
	if bytes.Equal(reversed, raw) {
		t.Fatal("the level-reversed schedule is the FIFO one")
	}
	if err := replayRun(io.Discard, path, writeTemp(t, "reversed.jsonl", string(reversed)), false); err != nil {
		t.Fatalf("level-reversed replay: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte(strings.Replace(string(raw), `"name":"add"`, `"name":"sub"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replayRun(io.Discard, path, bad, false); !errors.Is(err, rt.ErrInvalid) {
		t.Errorf("divergent replay err = %v, want ErrInvalid", err)
	}

	garbage := writeTemp(t, "junk.jsonl", "junk\n")
	if err := replayRun(io.Discard, path, garbage, false); !errors.Is(err, rt.ErrParse) {
		t.Errorf("junk schedule err = %v, want ErrParse", err)
	}
}

func TestRunClassifiesParseError(t *testing.T) {
	bad := writeTemp(t, "bad.dfir", "graph g\nnonsense")
	if err := run(context.Background(), io.Discard, bad, &cli.TelemetryFlags{}, "", 1000, "", false, false); !errors.Is(err, rt.ErrParse) {
		t.Errorf("dfir parse error not classified: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := writeTemp(t, "g.dfir", fig1ish)
	if err := run(ctx, io.Discard, g, &cli.TelemetryFlags{}, "", 1000, "", false, false); !errors.Is(err, rt.ErrCanceled) {
		t.Errorf("canceled run not classified: %v", err)
	}
}

// TestRunClassifiesEvalFault: the graph's own evaluation fault — a vertex
// dividing by zero, a steer whose control is a string — is eval, exit 8.
func TestRunClassifiesEvalFault(t *testing.T) {
	for _, src := range []string{
		"graph g\nconst x = 1\narith d / imm 0\nedge a x:0 -> d:0\nedge m d:0 -> out\n",
		"graph g\nconst d = 1\nconst c = 'x'\nsteer st\nedge a d:0 -> st:0\nedge b c:0 -> st:1\nedge t st:true -> out\nedge f st:false -> out\n",
	} {
		err := run(context.Background(), io.Discard, writeTemp(t, "eval.dfir", src), &cli.TelemetryFlags{}, "", 1000, "", false, false)
		if !errors.Is(err, rt.ErrEval) || cli.ExitCode(err) != cli.ExitEval {
			t.Errorf("%q: err = %v (exit %d), want eval (exit %d)", src, err, cli.ExitCode(err), cli.ExitEval)
		}
	}
}
