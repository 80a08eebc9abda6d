package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/schema"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithFileInit(t *testing.T) {
	path := writeTemp(t, "min.gamma", `
init {[5], [2], [9], [4]}
R = replace (x, y) by x where x < y
`)
	if err := run(context.Background(), io.Discard, path, schema.RunSpec{Workers: 1, MaxSteps: 1000}, false, &cli.TelemetryFlags{}, "", true, true, false); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), io.Discard, path, schema.RunSpec{Workers: 1, MaxSteps: 1000}, false, &cli.TelemetryFlags{}, "", false, false, true); err != nil {
		t.Fatalf("profile mode: %v", err)
	}
}

func TestRunWithFlagInit(t *testing.T) {
	path := writeTemp(t, "ex1.gamma", `
R1 = replace [id1, 'A1'], [id2, 'B1'] by [id1 + id2, 'B2']
`)
	if err := run(context.Background(), io.Discard, path, schema.RunSpec{Workers: 2, Seed: 1, MaxSteps: 1000}, false, &cli.TelemetryFlags{}, `{[1,'A1'],[5,'B1']}`, false, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), io.Discard, "/nonexistent.gamma", schema.RunSpec{Workers: 1}, false, &cli.TelemetryFlags{}, "", false, false, false); err == nil {
		t.Error("missing file should error")
	}
	bad := writeTemp(t, "bad.gamma", "replace")
	if err := run(context.Background(), io.Discard, bad, schema.RunSpec{Workers: 1}, false, &cli.TelemetryFlags{}, "", false, false, false); err == nil {
		t.Error("parse error should surface")
	}
	noInit := writeTemp(t, "noinit.gamma", "R = replace [x, 'a'] by [x, 'b']")
	if err := run(context.Background(), io.Discard, noInit, schema.RunSpec{Workers: 1}, false, &cli.TelemetryFlags{}, "", false, false, false); err == nil {
		t.Error("missing init should error")
	}
	if err := run(context.Background(), io.Discard, noInit, schema.RunSpec{Workers: 1}, false, &cli.TelemetryFlags{}, "{bad", false, false, false); err == nil {
		t.Error("bad -init should error")
	}
	diverge := writeTemp(t, "div.gamma", `
init {[0, 'a']}
R = replace [x, 'a'] by [x + 1, 'a']
`)
	if err := run(context.Background(), io.Discard, diverge, schema.RunSpec{Workers: 1, MaxSteps: 10}, false, &cli.TelemetryFlags{}, "", false, false, false); err == nil {
		t.Error("diverging program should hit maxsteps")
	}
}

// TestRecordReplayLoop drives the CLI's record/replay surface: a parallel
// run recorded with -trace-format schedule replays clean against the same
// file, and a schedule naming an unknown reaction diverges with exit-3
// classification.
func TestRecordReplayLoop(t *testing.T) {
	path := writeTemp(t, "ex1.gamma", `
init {[2,'A1'],[3,'A2'],[5,'B1'],[1,'B2']}
R1 = replace [a,'A1'], [b,'B1'] by [a+b,'C1']
R2 = replace [a,'A2'], [b,'B2'] by [a+b,'C2']
`)
	sched := filepath.Join(t.TempDir(), "sched.jsonl")
	tel := &cli.TelemetryFlags{Trace: sched, TraceFormat: "schedule"}
	if err := tel.Start(replay.KindGamma); err != nil {
		t.Fatal(err)
	}
	spec := schema.RunSpec{Workers: 4, Seed: 2, MaxSteps: 1000}
	if err := run(context.Background(), io.Discard, path, spec, false, tel, "", false, false, false); err != nil {
		t.Fatal(err)
	}
	if err := tel.Finish(); err != nil {
		t.Fatal(err)
	}

	if err := replayRun(io.Discard, path, sched, ""); err != nil {
		t.Fatalf("faithful replay: %v", err)
	}

	raw, err := os.ReadFile(sched)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte(strings.Replace(string(raw), `"name":"R1"`, `"name":"RX"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replayRun(io.Discard, path, bad, ""); !errors.Is(err, rt.ErrInvalid) {
		t.Errorf("divergent replay err = %v, want ErrInvalid", err)
	}

	if err := replayRun(io.Discard, path, "/nonexistent.jsonl", ""); err == nil {
		t.Error("missing schedule should error")
	}
	garbage := writeTemp(t, "junk.jsonl", "junk\n")
	if err := replayRun(io.Discard, path, garbage, ""); !errors.Is(err, rt.ErrParse) {
		t.Errorf("junk schedule err = %v, want ErrParse", err)
	}
}

func TestRunClassifiesErrors(t *testing.T) {
	bad := writeTemp(t, "bad.gamma", "replace")
	if err := run(context.Background(), io.Discard, bad, schema.RunSpec{Workers: 1}, false, &cli.TelemetryFlags{}, "", false, false, false); !errors.Is(err, rt.ErrParse) {
		t.Errorf("parse error not classified: %v", err)
	}
	// A composition naming an unknown reaction is an invalid program: exit 3,
	// as gammad answers 400 invalid for the same source.
	unknown := writeTemp(t, "unknown.gamma", `
init {[1], [2]}
R = replace (x, y) by x where x < y
R ; Q
`)
	if err := run(context.Background(), io.Discard, unknown, schema.RunSpec{Workers: 1}, false, &cli.TelemetryFlags{}, "", false, false, false); !errors.Is(err, rt.ErrInvalid) || cli.ExitCode(err) != cli.ExitParse {
		t.Errorf("unknown reaction in composition: err = %v (exit %d), want invalid (exit %d)", err, cli.ExitCode(err), cli.ExitParse)
	}
	diverge := writeTemp(t, "div.gamma", `
init {[0, 'a']}
R = replace [x, 'a'] by [x + 1, 'a']
`)
	if err := run(context.Background(), io.Discard, diverge, schema.RunSpec{Workers: 1, MaxSteps: 10}, false, &cli.TelemetryFlags{}, "", false, false, false); !errors.Is(err, rt.ErrMaxSteps) {
		t.Errorf("budget error not classified: %v", err)
	}
	// Out-of-range flags are rejected before the file is read, by the wire
	// spec's rules: the message and class dfrun and gammad give.
	for _, tc := range []struct {
		spec schema.RunSpec
		want string
	}{
		{schema.RunSpec{Workers: -3}, "spec: negative workers -3"},
		{schema.RunSpec{Workers: 1, MaxSteps: -1}, "spec: negative max_steps -1"},
		{schema.RunSpec{Workers: 2_000_000_000}, "spec: workers 2000000000 above the limit of 1024"},
	} {
		err := run(context.Background(), io.Discard, diverge, tc.spec, false, &cli.TelemetryFlags{}, "", false, false, false)
		if !errors.Is(err, rt.ErrInvalid) || err.Error() != tc.want || cli.ExitCode(err) != cli.ExitParse {
			t.Errorf("%+v: err = %v (exit %d), want %q classified invalid", tc.spec, err, cli.ExitCode(err), tc.want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, io.Discard, diverge, schema.RunSpec{Workers: 1}, false, &cli.TelemetryFlags{}, "", false, false, false); !errors.Is(err, rt.ErrCanceled) {
		t.Errorf("canceled run not classified: %v", err)
	}
}
