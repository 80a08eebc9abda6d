package gamma_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/symtab"
)

// TestAlg1ImageShape is the gate, in counts, on what a Γ step over an
// Algorithm 1 image may cost (§III-C: one reaction step per operator firing,
// same operands, same tag rule). Every reaction Algorithm 1 emits names its
// labels — literally, or through the inctag or-chain — so none may land in the
// scheduler's wildcard bucket or walk the whole multiset; and on the benchmark's
// 2 000-trip loop the step, probe and candidate counts are pinned, no label
// ever holds more than the four elements a tag query still scans — so a firing
// flips 0–1-entry lists and never builds, fills or drains a (label, tag) map
// (multiset's TestSingletonChurnAllocatesNothing pins that flip itself) — a
// warm run interns nothing, and a warm sequential run allocates next to
// nothing per step (2.6 objects before products were built in the worker's
// arenas, 0.04 now). Counts only, so it runs under -race; the allocation half
// needs a plain build.
func TestAlg1ImageShape(t *testing.T) {
	loop := func(trips int) string {
		return fmt.Sprintf("int s = 3;\nint t = 5;\nint i;\nfor (i = %d; i > 0; i--) { s = s + i*i; t = t + s %% 7; }\noutput s;\noutput t;\n", trips)
	}
	graphs := map[string]*dataflow.Graph{"fig1": paper.Fig1Graph(), "fig2": paper.Fig2GraphObservable(10, 4, 6)}
	sources := map[string]string{"loop": loop(2000)}
	for seed := int64(0); seed < 50; seed++ {
		sources[fmt.Sprintf("randprog %d", seed)], _ = equiv.RandomProgram(seed, 2+int(seed)%3, 3+int(seed)%5)
	}
	for name, src := range sources {
		g, err := compiler.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs[name] = g
	}
	for name, g := range graphs {
		prog, _, err := core.ToGamma(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wildcard, generic := gamma.Generic(prog); wildcard != 0 || generic != 0 {
			t.Errorf("%s: %d reactions in the wildcard bucket, %d kernels walk the whole multiset, want none:\n%s", name, wildcard, generic, prog)
		}
	}

	prog, init, err := core.ToGamma(graphs["loop"])
	if err != nil {
		t.Fatal(err)
	}
	run := func() *gamma.Stats {
		st, err := gamma.Run(prog, init.Clone(), gamma.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := run() // warms kernels and interns every label
	if st.Steps != 24010 || st.Probes != 24028 {
		t.Errorf("loop: %d steps, %d probes, want 24010 and 24028", st.Steps, st.Probes)
	}
	if perStep := float64(st.Candidates) / float64(st.Steps); perStep > 1.6 {
		t.Errorf("loop: %.2f candidates per step, want <= 1.6", perStep)
	}
	pop := &labelPopulation{now: map[string]int{}}
	init.ForEach(func(t multiset.Tuple, n int) bool { pop.add(t, n); return true })
	if _, err := gamma.Run(prog, init.Clone(), gamma.Options{Schedule: pop}); err != nil {
		t.Fatal(err)
	}
	if pop.max > 4 {
		t.Errorf("loop: label %s held %d elements at once, want <= 4 (multiset's bucketAt): its flips go through a tag map", pop.at, pop.max)
	}
	labels := symtab.Len()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	st = run()
	runtime.ReadMemStats(&b)
	if symtab.Len() != labels {
		t.Errorf("loop: a warm run interned %d labels", symtab.Len()-labels)
	}
	if perStep := float64(b.Mallocs-a.Mallocs) / float64(st.Steps); perStep > 0.1 && !gamma.RaceEnabled {
		t.Errorf("loop: %.2f objects allocated per step on a warm run, want <= 0.1", perStep)
	}
}

// TestAlgorithm1RunArenaFlat is the gate on what a Γ run of an Algorithm 1
// image keeps carving: a firing renames one or two elements of a multiset that
// never holds more than a few dozen, so the cells and key bytes a commit frees
// are what the next one's products reuse (multiset's carve). The 2 000-trip
// loop read 4.18 MB per run when every product was carved afresh, 10× that at
// 20 000 trips; now runs of 200, 2 000 and 20 000 trips must allocate within
// 8 KiB of each other and carve the same arena bytes. The least of three warm
// runs per trip count is compared; skipped under -race.
func TestAlgorithm1RunArenaFlat(t *testing.T) {
	if gamma.RaceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var least []uint64
	var arena []int64
	for _, trips := range []int{200, 2000, 20000} {
		src := fmt.Sprintf("int s = 3;\nint t = 5;\nint i;\nfor (i = %d; i > 0; i--) { s = s + i*i; t = t + s %% 7; }\noutput s;\noutput t;\n", trips)
		g, err := compiler.Compile("loop", src)
		if err != nil {
			t.Fatal(err)
		}
		prog, init, err := core.ToGamma(g)
		if err != nil {
			t.Fatal(err)
		}
		var a, b runtime.MemStats
		bytes := uint64(math.MaxUint64)
		for run := 0; run < 4; run++ { // the first warms kernels and labels
			m := init.Clone()
			runtime.ReadMemStats(&a)
			st, err := gamma.Run(prog, m, gamma.Options{})
			runtime.ReadMemStats(&b)
			if err != nil {
				t.Fatal(err)
			}
			if run > 0 {
				bytes = min(bytes, b.TotalAlloc-a.TotalAlloc)
			}
			if run == 1 {
				arena = append(arena, st.ArenaBytes)
			}
		}
		least = append(least, bytes)
		t.Logf("%d trips: %d B per run, arena %d B", trips, bytes, arena[len(arena)-1])
	}
	if spread := slices.Max(least) - slices.Min(least); spread > 8<<10 {
		t.Errorf("runs of 200, 2 000 and 20 000 trips allocated %v B: %d B apart, want <= 8 KiB", least, spread)
	}
	if arena[0] != arena[1] || arena[1] != arena[2] {
		t.Errorf("runs of 200, 2 000 and 20 000 trips carved %v arena bytes, want them equal", arena)
	}
}

// labelPopulation is a ScheduleRecorder that folds a sequential run's firings
// into the element count under each label and keeps the largest it sees.
type labelPopulation struct {
	now map[string]int
	max int
	at  string
}

func (p *labelPopulation) add(t multiset.Tuple, n int) {
	label, _ := t.Label()
	if p.now[label] += n; p.now[label] > p.max {
		p.max, p.at = p.now[label], label
	}
}

func (p *labelPopulation) RecordStepTuples(_ uint64, _ string, _ time.Time, consumed, produced []multiset.Tuple) {
	for _, t := range consumed {
		p.add(t, -1)
	}
	for _, t := range produced {
		p.add(t, 1)
	}
}
