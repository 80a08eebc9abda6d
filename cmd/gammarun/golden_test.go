package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/replay"
	"repro/internal/schema"
)

var update = flag.Bool("update", false, "rewrite the golden files from this build's output")

// TestGoldenStdout pins gammarun's stdout, at the flags' defaults, on the
// paper's Fig. 1 program and the testdata fixtures: plain and under -stats,
// -profile, -typecheck and -metrics.
func TestGoldenStdout(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.gamma")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{"../../examples/fig1.gamma"}, files...) {
		for _, mode := range []string{"plain", "stats", "profile", "typecheck", "metrics"} {
			name := strings.TrimSuffix(filepath.Base(path), ".gamma") + "." + mode
			t.Run(name, func(t *testing.T) {
				tel := &cli.TelemetryFlags{Metrics: mode == "metrics"}
				if err := tel.Start(replay.KindGamma); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				spec := schema.RunSpec{Workers: 1, MaxSteps: 1_000_000}
				if err := run(context.Background(), &out, path, spec, false, tel, "", mode == "stats", mode == "typecheck", mode == "profile"); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, filepath.Join("testdata", "golden", name), out.String())
			})
		}
	}
}

// checkGolden compares out with the golden file, both through stable; with
// -update it rewrites the file instead.
func checkGolden(t *testing.T, file, out string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, []byte(stable(out)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := stable(out); got != stable(string(want)) {
		t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}

// stable drops what changes from run to run: in the -metrics table, the
// separator, the wall-clock *_ns histogram rows and every column past value.
func stable(out string) string {
	head, table, ok := strings.Cut(out, "== telemetry metrics ==\n")
	if !ok {
		return out
	}
	var b strings.Builder
	b.WriteString(head + "== telemetry metrics ==\n")
	for _, line := range strings.Split(strings.TrimSuffix(table, "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || strings.HasPrefix(f[0], "---") || strings.Contains(f[0], "_ns") {
			continue
		}
		b.WriteString(strings.Join(f[:3], " ") + "\n")
	}
	return b.String()
}
