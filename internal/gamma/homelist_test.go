package gamma

import (
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// lit is a literal string field of a product template.
func lit(s string) expr.Expr { return expr.Lit{Val: value.Str(s)} }

// homeListGates are the workloads of TestHomeListScaling: one per path whose
// complexity changed when an element's only index became its label's list.
var homeListGates = []struct {
	name  string
	prog  *Program
	init  func(n int) *multiset.Multiset
	steps func(n int) int64
	// perStep bounds candidates per step at every size; final checks the
	// stable state and the run's stats.
	perStep float64
	final   func(t *testing.T, n int, m *multiset.Multiset, st *Stats)
}{
	{
		// One label, n elements, n distinct tags: both labels are bucketed, so
		// the operand lookup [y, 'B', t] is one bucket however many tags wait.
		name: "bucketed tags",
		prog: MustProgram("join", &Reaction{
			Name:     "J",
			Patterns: []Pattern{{FVar("x"), FLabel("A"), FVar("t")}, {FVar("y"), FLabel("B"), FVar("t")}},
			Branches: []Branch{{Products: []Template{{expr.MustParse("x + y"), lit("C"), expr.MustParse("t")}}}},
		}),
		init: func(n int) *multiset.Multiset {
			m := multiset.New()
			for i := int64(0); i < int64(n); i++ {
				m.Add(multiset.IntElem(i, "A", i))
				m.Add(multiset.IntElem(2*i, "B", (i*7919)%int64(n))) // 7919 is prime: a permutation of the tags
			}
			return m
		},
		steps:   func(n int) int64 { return int64(n) },
		perStep: 2,
		final: func(t *testing.T, n int, m *multiset.Multiset, st *Stats) {
			if m.Len() != n || len(m.ByLabel("C")) != distinct(m) {
				t.Errorf("n=%d: %d elements, %d distinct, %d under C", n, m.Len(), distinct(m), len(m.ByLabel("C")))
			}
		},
	},
	{
		// One label, n untagged elements consumed pairwise into few distinct
		// products: every insert is a search of the product label's list that
		// ends in count++ or a placement, never a hash and never a scan.
		name: "pairwise dedupe",
		prog: MustProgram("pairs", &Reaction{
			Name:     "P",
			Patterns: []Pattern{{FVar("x"), FLabel("L")}, {FVar("y"), FLabel("L")}},
			Branches: []Branch{{Products: []Template{{expr.MustParse("(x + y) % 257"), lit("M")}}}},
		}),
		init: func(n int) *multiset.Multiset {
			m := multiset.New()
			for i := 0; i < n; i++ {
				m.Add(multiset.Pair(value.Int(int64(i)), "L"))
			}
			return m
		},
		steps:   func(n int) int64 { return int64(n / 2) },
		perStep: 3, // x, x again (claimed), y
		final: func(t *testing.T, n int, m *multiset.Multiset, st *Stats) {
			if m.Len() != n/2 || distinct(m) > 257 {
				t.Errorf("n=%d: %d elements, %d distinct, want %d and <= 257", n, m.Len(), distinct(m), n/2)
			}
		},
	},
	{
		// n inserts of one tuple: the search finds it, its count grows, and no
		// list, arena or entry does.
		name: "same tuple",
		prog: MustProgram("same", &Reaction{
			Name:     "S",
			Patterns: []Pattern{{FVar("x"), FLabel("S")}},
			Branches: []Branch{{Products: []Template{{expr.MustParse("0"), lit("T")}}}},
		}),
		init: func(n int) *multiset.Multiset {
			m := multiset.New()
			for i := 0; i < n; i++ {
				m.Add(multiset.Pair(value.Int(int64(i)), "S"))
			}
			return m
		},
		steps:   func(n int) int64 { return int64(n) },
		perStep: 1,
		final: func(t *testing.T, n int, m *multiset.Multiset, st *Stats) {
			if distinct(m) != 1 || m.Count(multiset.Pair(value.Int(0), "T")) != n || st.ArenaBytes > 1<<10 {
				t.Errorf("n=%d: %d distinct, [0, 'T'] × %d, %d arena bytes carved; want 1, %d and one entry's worth",
					n, distinct(m), m.Count(multiset.Pair(value.Int(0), "T")), st.ArenaBytes, n)
			}
		},
	},
}

// wallClock reports whether this run asserts wall-clock fits. Tier-1 (go test
// ./...) runs packages side by side on two cores, where an exponent fitted
// over a few milliseconds reads what the neighbours leave it (ROADMAP 8e), so
// it asserts the count forms only; make check-ci sets GAMMAFLOW_WALLCLOCK on
// its serial plain-build lines.
func wallClock() bool {
	return os.Getenv("GAMMAFLOW_WALLCLOCK") != "" && !raceEnabled && !testing.Short()
}

// TestHomeListScaling is the shape gate on the multiset paths whose complexity
// moved when the key hash and the second ordered list went away (ROADMAP
// 6(d)): what a step costs must not depend on how many elements its label
// holds. Each workload runs once, small, with the storage invariants checked
// after every commit; then at three sizes for the counts — closed-form steps,
// candidates per step under a constant — which repeat exactly and so run under
// -race; and, with wall-clock gates on (wallClock), for wall time, whose
// exponent over n must stay under 1.5 (n log n fits 1.1 here; a per-step scan or re-sort fits 2.0). A
// busy host only adds time, so a failing fit is measured again and each size
// keeps its faster reading.
func TestHomeListScaling(t *testing.T) {
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	timed := wallClock()
	for _, g := range homeListGates {
		run := func(t *testing.T, n int) time.Duration {
			m := g.init(n)
			t0 := time.Now()
			st, err := Run(g.prog, m, Options{})
			wall := time.Since(t0)
			if err != nil || st.Steps != g.steps(n) {
				t.Fatalf("n=%d: %d steps (want %d), err %v", n, st.Steps, g.steps(n), err)
			}
			if perStep := float64(st.Candidates) / float64(st.Steps); perStep > g.perStep {
				t.Errorf("n=%d: %.2f candidates per step, want <= %.0f", n, perStep, g.perStep)
			}
			g.final(t, n, m, st)
			return wall
		}
		t.Run(g.name+"/checked", func(t *testing.T) {
			CheckCommits(t)
			run(t, 1<<9)
		})
		t.Run(g.name, func(t *testing.T) {
			measure := func() (ns, walls []float64) {
				for _, n := range sizes {
					reps := make([]time.Duration, 3)
					for i := range reps {
						if reps[i] = run(t, n); !timed {
							break
						}
					}
					sort.Slice(reps, func(a, b int) bool { return reps[a] < reps[b] })
					ns, walls = append(ns, float64(n)), append(walls, reps[1].Seconds())
				}
				return ns, walls
			}
			ns, walls := measure()
			if !timed {
				return
			}
			we := fitExponent(ns, walls)
			for retry := 0; we > 1.5 && retry < 2; retry++ {
				t.Logf("wall time grew as n^%.2f (%v s), measuring again", we, walls)
				_, again := measure()
				for i := range walls {
					walls[i] = math.Min(walls[i], again[i])
				}
				we = fitExponent(ns, walls)
			}
			if we > 1.5 {
				t.Errorf("wall time grows as n^%.2f over n=%v (%v s), want exponent <= 1.5", we, sizes, walls)
			}
			t.Logf("wall %v s ~ n^%.2f", walls, we)
		})
	}
}

// TestHomeListOscillation is the hysteresis gate: a label that moves between
// four and five elements for 10⁴ steps — one token bouncing between it and a
// second label, four bystanders that never match — is bucketed once, on the
// way to five, and stays so, so a step neither builds nor drops a map and,
// once the arenas are warm, allocates nothing of its own. The first pass
// checks the storage invariants after every commit; the second counts
// allocations.
func TestHomeListOscillation(t *testing.T) {
	const steps = 10000
	prog, token := bounceProgram(steps) // session_test.go
	init := func() *multiset.Multiset {
		m := token.Clone()
		for i := int64(0); i < 4; i++ {
			m.Add(multiset.IntElem(1<<40+i, "O", i))
		}
		return m
	}
	run := func() *Stats {
		m := init()
		st, err := Run(prog, m, Options{})
		if err != nil || st.Steps != steps || len(m.ByLabel("O")) != 5 || !m.Contains(multiset.IntElem(steps, "O", steps)) {
			t.Fatalf("%d steps (want %d), err %v, final %s", st.Steps, steps, err, m)
		}
		return st
	}
	t.Run("checked", func(t *testing.T) {
		CheckCommits(t)
		run()
	})
	if raceEnabled {
		return
	}
	run() // warms kernels, pools and the symbol table
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	st := run()
	runtime.ReadMemStats(&b)
	if perStep := float64(b.Mallocs-a.Mallocs) / float64(st.Steps); perStep > 0.05 {
		t.Errorf("%.3f objects allocated per step over %d steps, want <= 0.05 (arena refills only)", perStep, st.Steps)
	}
}

// distinct counts m's distinct tuples.
func distinct(m *multiset.Multiset) int {
	n := 0
	m.ForEach(func(multiset.Tuple, int) bool { n++; return true })
	return n
}
