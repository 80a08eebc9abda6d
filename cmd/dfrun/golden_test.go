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
)

var update = flag.Bool("update", false, "rewrite the golden files from this build's output")

// TestGoldenStdout pins dfrun -compile's stdout, at the flags' defaults, on
// the testdata von Neumann sources: plain and under -profile and -metrics.
func TestGoldenStdout(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.vn")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		for _, mode := range []string{"plain", "profile", "metrics"} {
			name := strings.TrimSuffix(filepath.Base(path), ".vn") + "." + mode
			t.Run(name, func(t *testing.T) {
				tel := &cli.TelemetryFlags{Metrics: mode == "metrics"}
				if err := tel.Start(replay.KindDataflow); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := run(context.Background(), &out, path, tel, "", 1_000_000, "", true, mode == "profile"); err != nil {
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
