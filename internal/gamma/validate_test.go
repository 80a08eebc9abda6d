package gamma_test

import (
	"context"
	"testing"

	"repro/internal/gamma"
	"repro/internal/schema"
)

// TestColdLoadValidatesOnce: a cold schema.LoadGamma of a two-stage program
// and its first run walk each reaction's Validate once — the parser's verdict
// is the one NewProgram and the kernel return.
func TestColdLoadValidatesOnce(t *testing.T) {
	walks := gamma.CountValidations(t)
	job, err := schema.LoadGamma("run", `init {[1, 'raw'], [2, 'raw'], [3, 'raw']}
DOUBLE = replace [x, 'raw'] by [x * 2, 'mid']
SUM    = replace [x, 'mid'], [y, 'mid'] by [x + y, 'mid'] if x > 0
DOUBLE ; SUM
`, "")
	if err != nil {
		t.Fatal(err)
	}
	gopt, dopt := schema.RunSpec{}.Lower(nil, nil)
	if _, err := job.Run(context.Background(), gopt, dopt); err != nil {
		t.Fatal(err)
	}
	if len(job.Reactions) != 2 || len(walks) != 2 {
		t.Fatalf("%d reactions, %d validated; want 2 and 2", len(job.Reactions), len(walks))
	}
	for _, r := range job.Reactions {
		if walks[r] != 1 {
			t.Errorf("reaction %s: Validate walked %d times, want 1", r.Name, walks[r])
		}
	}
}
