package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestFastExperiments executes every experiment driver in the table end to
// end; none of them times anything, so all of them are cheap.
func TestFastExperiments(t *testing.T) {
	for _, e := range experiments {
		if err := e.run(); err != nil {
			t.Errorf("%s: %v", e.id, err)
		}
	}
}

// TestSelectExperiments pins the -exp contract: table order, stray commas
// ignored, and any id outside the table rejected by name with the valid ids
// listed — a list may not silently run half of itself.
func TestSelectExperiments(t *testing.T) {
	ids := func(sel []experiment) string {
		var out []string
		for _, e := range sel {
			out = append(out, e.id)
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct{ list, want string }{
		{"e4", "e4"},
		{"e17,e1", "e1,e17"},
		{" e4 ,,e7,", "e4,e7"},
		{"all", ids(experiments)},
		{"e4,all", ids(experiments)},
	} {
		sel, err := selectExperiments(tc.list)
		if err != nil || ids(sel) != tc.want {
			t.Errorf("-exp %q selected %q, %v; want %q", tc.list, ids(sel), err, tc.want)
		}
	}
	for _, tc := range []struct{ list, names string }{
		{"e4,e99", `"e99"`},
		{"e4,e21", `"e21"`},
		{"e16", `"e16"`},
		{"e13", `"e13"`},
		{"", "no experiment"},
		{",", "no experiment"},
	} {
		sel, err := selectExperiments(tc.list)
		if err == nil {
			t.Errorf("-exp %q selected %q, want an error", tc.list, ids(sel))
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.names) || !strings.Contains(msg, "e1, e3, e4") {
			t.Errorf("-exp %q: error %q should name %s and list the valid ids", tc.list, msg, tc.names)
		}
	}
}

// TestDocsCiteKnownExperiments keeps the prose honest: every `gfbench -exp
// <list>` in README, DESIGN and EXPERIMENTS, and every one — or a bare
// parenthesized `(eN)` — in a Go file outside bench/ (which has its own
// module and rules), must resolve against the experiments table, and every
// prose id `E<n>` (as in "EXPERIMENTS.md E5") in the same files against the
// rows of DESIGN.md's §3 index, where each runnable experiment has its row:
// neither the docs nor a comment can cite a deleted experiment.
func TestDocsCiteKnownExperiments(t *testing.T) {
	cite := regexp.MustCompile(`gfbench\s+-exp[\s=]+([A-Za-z0-9,]+)|\((e[0-9]+)\)`)
	prose := regexp.MustCompile(`\bE[0-9]+\b`)
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	indexed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (E[0-9]+) \|`).FindAllSubmatch(design, -1) {
		indexed[string(m[1])] = true
	}
	for _, e := range experiments {
		if !indexed[strings.ToUpper(e.id)] {
			t.Errorf("experiment %s has no row in DESIGN.md §3", e.id)
		}
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch rel, _ := filepath.Rel("../..", path); {
		case d.IsDir() && (rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "."):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(rel, ".go") && rel != filepath.Join("cmd", "gfbench", "main_test.go"):
			docs = append(docs, rel) // this file's own examples are not citations
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		cites := cite.FindAllSubmatch(text, -1)
		for _, m := range cites {
			if _, err := selectExperiments(string(m[1]) + string(m[2])); err != nil {
				t.Errorf("%s cites `%s`: %v", doc, m[0], err)
			}
		}
		ids := prose.FindAll(text, -1)
		for _, id := range ids {
			if !indexed[string(id)] {
				t.Errorf("%s cites %s, which DESIGN.md §3 does not index", doc, id)
			}
		}
		total += len(cites) + len(ids)
	}
	t.Logf("%d files: %d experiment citations", len(docs), total)
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:         "2.00s",
		1500 * time.Millisecond: "1.50s",
		3 * time.Millisecond:    "3.00ms",
		250 * time.Microsecond:  "250.00µs",
		480 * time.Nanosecond:   "480ns",
	}
	for d, want := range cases {
		if got := formatDuration(d); got != want {
			t.Errorf("formatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestTimeAndTimeN(t *testing.T) {
	d := timeIt(func() { time.Sleep(2 * time.Millisecond) })
	if d < 2*time.Millisecond {
		t.Errorf("timeIt too short: %v", d)
	}
	n := 0
	best := timeN(3, func() { n++ })
	if n != 3 || best < 0 {
		t.Errorf("timeN ran %d times, best %v", n, best)
	}
}
