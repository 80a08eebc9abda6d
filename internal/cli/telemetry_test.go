package cli

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/value"
)

func TestTelemetryFlagsDisabledIsFree(t *testing.T) {
	var tel TelemetryFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tel.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tel.Enabled() {
		t.Fatal("no flags set must mean disabled")
	}
	if err := tel.Start(replay.KindGamma); err != nil {
		t.Fatal(err)
	}
	if tel.Schedule() != nil {
		t.Fatal("disabled telemetry must keep the untraced path")
	}
	if err := tel.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestTelemetryFlagsRejectsUnknownFormat(t *testing.T) {
	tel := TelemetryFlags{Trace: "x.out", TraceFormat: "svg"}
	if err := tel.Start(replay.KindGamma); err == nil {
		t.Fatal("unknown trace format must fail Start")
	}
}

func TestTelemetryFlagsJSONLLifecycle(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	tel := TelemetryFlags{Trace: out, TraceFormat: "jsonl"}
	if err := tel.Start(replay.KindGamma); err != nil {
		t.Fatal(err)
	}
	sched := tel.Schedule()
	if sched == nil {
		t.Fatal("trace requested but no schedule recorder")
	}
	sched.RecordStepTuples(1, "R1", time.Now(), []multiset.Tuple{multiset.Pair(value.Int(1), "a")}, []multiset.Tuple{multiset.Pair(value.Int(1), "b")})
	if err := tel.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 1 {
		t.Fatalf("exported %d lines, want 1", lines)
	}
}

func TestTelemetryFlagsDOTLifecycle(t *testing.T) {
	out := filepath.Join(t.TempDir(), "prov.dot")
	tel := TelemetryFlags{Trace: out, TraceFormat: "dot"}
	if err := tel.Start(replay.KindGamma); err != nil {
		t.Fatal(err)
	}
	sched := tel.Schedule()
	if sched == nil {
		t.Fatal("dot format must build a schedule recorder to fold the DAG from")
	}
	// A Γ schedule labels its boxes with the tuple.
	sched.RecordStepTuples(1, "R1", time.Now(), []multiset.Tuple{multiset.Pair(value.Int(1), "A1")}, nil)
	if err := tel.Finish(); err != nil {
		t.Fatal(err)
	}
	dot, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph provenance", `label="R1"`, `label="[1, 'A1']"`} {
		if !strings.Contains(string(dot), want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestProfileSpecEmptyIsNoop(t *testing.T) {
	stop, err := ProfileSpec{}.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent
}

func TestProfileSpecWritesAllProfiles(t *testing.T) {
	dir := t.TempDir()
	spec := ProfileSpec{
		CPU:   filepath.Join(dir, "cpu.out"),
		Mem:   filepath.Join(dir, "mem.out"),
		Block: filepath.Join(dir, "block.out"),
		Mutex: filepath.Join(dir, "mutex.out"),
	}
	stop, err := spec.Start()
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the CPU profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	stop()
	stop() // flush must be once-only and re-stopping safe
	for _, p := range []string{spec.CPU, spec.Mem, spec.Block, spec.Mutex} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
