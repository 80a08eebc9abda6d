package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFastExperiments executes the cheap experiment drivers end to end; the
// timing-heavy ones (e12, e13) run only outside -short.
func TestFastExperiments(t *testing.T) {
	fast := map[string]func() error{
		"e1": expE1, "e3": expE3, "e4": expE4, "e5": expE5,
		"e7": expE7, "e8": expE8, "e9": expE9, "e11": expE11, "e15": expE15,
	}
	for id, fn := range fast {
		if err := fn(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestSlowExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments")
	}
	for id, fn := range map[string]func() error{"e12": expE12, "e13": expE13, "e14": expE14} {
		if err := fn(); err != nil {
			t.Errorf("%s: %v", id, err)
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
// module and rules), must resolve against the experiments table, so neither
// the docs nor a comment can cite a deleted experiment.
func TestDocsCiteKnownExperiments(t *testing.T) {
	cite := regexp.MustCompile(`gfbench\s+-exp[\s=]+([A-Za-z0-9,]+)|\((e[0-9]+)\)`)
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
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
		total += len(cites)
	}
	t.Logf("%d files: %d experiment citations", len(docs), total)
}
