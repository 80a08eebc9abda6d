package equiv

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

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

// checkSchedules runs g on the FIFO schedule, recorded, and holds the run to
// two folds of its schedule. The ticks fold: Result.Ticks equals the
// schedule's span past the const level (Schedule.Profile), and the run-end
// fold's dataflow.ticks and fired_per_tick read the engine's Ticks and the
// firings above the const level. The replay: the level-reversed schedule replays without divergence to
// the run's outputs, firings and pending operands. moved reports whether the
// reversal changed the order at all; a chain has one step per level.
func checkSchedules(g *dataflow.Graph, maxSteps int64) (moved bool, err error) {
	rec := replay.NewRecorder(replay.KindDataflow, g.Name)
	res, err := dataflow.Run(g, dataflow.Options{MaxFirings: maxSteps, Schedule: rec})
	if err != nil {
		return false, err
	}
	sched := rec.Schedule()
	rep := sched.Profile()
	reg := telemetry.NewRegistry()
	replay.DataflowMetrics(reg, g, res, sched)
	h := reg.Histogram("dataflow.fired_per_tick")
	consts := int64(0)
	if len(rep.Profile) > 0 {
		consts = rep.Profile[0]
	}
	if ticks := reg.CounterValue("dataflow.ticks"); res.Ticks != max(rep.Span-1, 0) || ticks != res.Ticks ||
		h.Count() != res.Ticks || h.Sum() != res.Firings-consts {
		return false, fmt.Errorf("ticks %d (counter %d, fired_per_tick %d/%d), firings %d, schedule span %d and widths %v",
			res.Ticks, ticks, h.Count(), h.Sum(), res.Firings, rep.Span, rep.Profile)
	}

	perm := levelReversed(sched)
	for i := range perm.Steps {
		moved = moved || perm.Steps[i].Seq != sched.Steps[i].Seq
	}
	back, err := replay.ReplayDataflow(g, perm)
	switch {
	case err != nil:
		return moved, err
	case back.Divergence != nil:
		return moved, fmt.Errorf("level-reversed schedule diverged: %v", back.Divergence)
	case int64(back.Steps) != res.Firings || back.Pending != res.Pending:
		return moved, fmt.Errorf("level-reversed replay: %d steps, %d pending; run: %d firings, %d pending",
			back.Steps, back.Pending, res.Firings, res.Pending)
	case !reflect.DeepEqual(back.Outputs, res.Outputs):
		return moved, fmt.Errorf("level-reversed replay outputs %v, run %v", back.Outputs, res.Outputs)
	}
	return moved, nil
}

// TestEngineDifferentialGoldens checks the paper's figures — the workloads
// whose expected outputs are pinned elsewhere in the suite — and the compiled
// testdata/*.vn programs against both folds of their recorded FIFO schedule
// (checkSchedules). Every figure has a level of two steps or more, so its
// reversed schedule is a linearisation other than FIFO's.
func TestEngineDifferentialGoldens(t *testing.T) {
	goldens := map[string]*dataflow.Graph{
		"fig1":            paper.Fig1Graph(),
		"fig1-negative":   paper.Fig1GraphWith(-7, 5, 3, -2),
		"fig2":            paper.Fig2Graph(),
		"fig2-observable": paper.Fig2GraphObservable(10, 4, 3),
		"fig2-else":       paper.Fig2GraphWith(1, 4, 3),
	}
	files, _ := filepath.Glob("../../testdata/*.vn")
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		goldens[filepath.Base(f)] = compiler.MustCompile(f, string(src))
	}
	for name, g := range goldens {
		moved, err := checkSchedules(g, 10_000)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !moved && filepath.Ext(name) != ".vn" {
			t.Errorf("%s: the level-reversed schedule is the FIFO one", name)
		}
	}
}

// TestEngineDifferentialRandom is the same property over seeded random
// graphs: 200 seeds of varying size, run under the race detector by make
// stress. Each has at least two roots, so every reversal moves a step.
func TestEngineDifferentialRandom(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		moved, err := checkSchedules(RandomGraph(int64(seed), 2+seed%3, 4+seed%17), 100_000)
		if err != nil || !moved {
			t.Fatalf("seed %d: moved %v, %v", seed, moved, err)
		}
	}
}
