package gamma_test

// The run-end fold (replay.GammaMetrics) against its two sources: the Stats a
// run returns and the schedule it recorded. The engine has no other
// per-firing observer, so these hold every published series to the engine's
// own accounting.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/value"
)

func minProgram(t testing.TB) *gamma.Program {
	p, err := gammalang.ParseProgram("min", "R = replace (x, y) by x where x < y")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tracedRun runs p on m with a schedule recorder and folds the run's
// registry; the error is the run's.
func tracedRun(p *gamma.Program, m *multiset.Multiset, opt gamma.Options) (*gamma.Stats, *replay.Schedule, *telemetry.Registry, error) {
	rec := replay.NewRecorder(replay.KindGamma, p.Name)
	opt.Schedule = rec
	plan, m0 := gamma.Sequence(p), m.Len()
	st, err := plan.Run(m, opt)
	sched, reg := rec.Schedule(), telemetry.NewRegistry()
	replay.GammaMetrics(reg, plan, m0, st, sched)
	return st, sched, reg, err
}

// checkTelemetryAgrees holds the folded registry to the Stats the run
// returned and to the schedule it recorded: the counters are the Stats
// fields, gamma.steps is the schedule's length, gamma.fired.<r> is both the
// Stats count and the schedule's per-name count, and gamma.firing_ns.<r>
// observed every recorded firing of r once.
func checkTelemetryAgrees(t *testing.T, reg *telemetry.Registry, st *gamma.Stats, sched *replay.Schedule) {
	t.Helper()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"gamma.steps", st.Steps},
		{"gamma.steps", int64(len(sched.Steps))},
		{"gamma.probes", st.Probes},
		{"gamma.candidates", st.Candidates},
		{"gamma.arena_bytes", st.ArenaBytes},
	} {
		if got := reg.CounterValue(c.name); got != c.want {
			t.Errorf("counter %s = %d, want %d", c.name, got, c.want)
		}
	}
	perName := map[string]int64{}
	for _, s := range sched.Steps {
		perName[s.Name]++
	}
	for name, want := range st.Fired {
		if got := reg.CounterValue("gamma.fired." + name); got != want || perName[name] != want {
			t.Errorf("counter gamma.fired.%s = %d, schedule %d, stats %d", name, got, perName[name], want)
		}
	}
	for name, n := range perName {
		if got := reg.Histogram("gamma.firing_ns." + name).Count(); got != n {
			t.Errorf("histogram gamma.firing_ns.%s observed %d firings, schedule has %d", name, got, n)
		}
	}
}

func TestTelemetryDifferentialSequential(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		m := multiset.New()
		for i := int64(1); i <= 200; i++ {
			m.Add(multiset.New1(value.Int(i*7%211 + 1)))
		}
		m0 := int64(m.Len())
		st, sched, reg, err := tracedRun(minProgram(t), m, gamma.Options{FullScan: fullScan})
		if err != nil {
			t.Fatalf("fullScan=%v: %v", fullScan, err)
		}
		checkTelemetryAgrees(t, reg, st, sched)
		if st.Steps == 0 {
			t.Fatalf("fullScan=%v: run did no work", fullScan)
		}
		// Every firing shrinks the multiset by one: the fold ends at the
		// stable state's size and peaked at the initial one.
		if g := reg.Gauge("gamma.cardinality"); g.Value() != int64(m.Len()) || g.Max() != m0-1 {
			t.Errorf("fullScan=%v: cardinality %d max %d, want %d max %d", fullScan, g.Value(), g.Max(), m.Len(), m0-1)
		}
	}
}

func TestTelemetryDifferentialParallel(t *testing.T) {
	for _, workers := range []int{2, 4} {
		m := multiset.New()
		for i := int64(1); i <= 300; i++ {
			m.Add(multiset.New1(value.Int(i)))
		}
		st, sched, reg, err := tracedRun(minProgram(t), m, gamma.Options{Workers: workers, Seed: int64(workers)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkTelemetryAgrees(t, reg, st, sched)
		if st.Steps != 299 {
			t.Errorf("workers=%d: steps = %d, want 299", workers, st.Steps)
		}
	}
}

func TestTelemetryDifferentialFaultInjected(t *testing.T) {
	boom := errors.New("injected")
	for _, workers := range []int{1, 4} {
		m := multiset.New()
		for i := int64(1); i <= 100; i++ {
			m.Add(multiset.New1(value.Int(i)))
		}
		var fired atomic.Int64 // the injector runs on every worker concurrently
		st, sched, reg, err := tracedRun(minProgram(t), m, gamma.Options{
			Workers: workers, Seed: 7,
			FaultInjector: func(site string, worker int) error {
				if fired.Add(1) > 20 {
					return boom
				}
				return nil
			},
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want injected fault", workers, err)
		}
		if st == nil {
			t.Fatalf("workers=%d: no partial stats", workers)
		}
		// The run died mid-flight: the fold must still agree with the
		// partial Stats and the recorded prefix exactly.
		checkTelemetryAgrees(t, reg, st, sched)
	}
}

// timelineLanes exports the schedule's timeline as JSONL and returns its
// spans by lane.
func timelineLanes(t *testing.T, sched *replay.Schedule) map[string][][2]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := sched.Timeline().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lanes := map[string][][2]int64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e struct {
			Track string `json:"track"`
			TS    int64  `json:"ts_ns"`
			Dur   int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		lanes[e.Track] = append(lanes[e.Track], [2]int64{e.TS, e.Dur})
	}
	for name, spans := range lanes {
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][0]+spans[i-1][1] {
				t.Fatalf("lane %s: span at %d overlaps the one before it, %v", name, spans[i][0], spans[i-1])
			}
		}
	}
	return lanes
}

// TestTelemetryEventsSequential pins the timeline of a sequential run: one
// lane, gamma/w0, holding one span per step.
func TestTelemetryEventsSequential(t *testing.T) {
	p, err := gammalang.ParseProgram("example1", paper.Example1GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	m, err := multiset.Parse(paper.Example1InitialMultiset)
	if err != nil {
		t.Fatal(err)
	}
	st, sched, _, err := tracedRun(p, m, gamma.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lanes := timelineLanes(t, sched)
	if len(lanes) != 1 || int64(len(lanes["gamma/w0"])) != st.Steps {
		t.Fatalf("lanes = %v, want gamma/w0 with %d spans", lanes, st.Steps)
	}
}

// TestTelemetryTimelineParallel: a workers-2 run's spans pack into at most
// two lanes that never overlap, one span per firing, every one inside the
// run's wall time.
func TestTelemetryTimelineParallel(t *testing.T) {
	m := multiset.New()
	for i := int64(1); i <= 4000; i++ {
		m.Add(multiset.New1(value.Int(i*7919%4001 + 1)))
	}
	begin := time.Now() // no later than the recorder's clock base
	st, sched, _, err := tracedRun(minProgram(t), m, gamma.Options{Workers: 2, Seed: 3})
	wall := time.Since(begin).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	lanes := timelineLanes(t, sched)
	spans := int64(0)
	for name, lane := range lanes {
		if name != "gamma/w0" && name != "gamma/w1" {
			t.Errorf("lane %s: a workers-2 run needs two lanes at most", name)
		}
		for _, s := range lane {
			if s[0] < 0 || s[0]+s[1] > wall {
				t.Fatalf("lane %s: span [%d, +%d] outside the run's %d ns", name, s[0], s[1], wall)
			}
		}
		spans += int64(len(lane))
	}
	if spans != st.Steps {
		t.Errorf("%d spans for %d steps", spans, st.Steps)
	}
}

func ExampleOptions_recorder() {
	p, _ := gammalang.ParseProgram("min", "R = replace (x, y) by x where x < y")
	m, _ := multiset.Parse("{[42], [7], [99], [3], [58]}")
	rec := replay.NewRecorder(replay.KindGamma, "min")
	m0 := m.Len()
	st, _ := gamma.Run(p, m, gamma.Options{Schedule: rec})
	reg := telemetry.NewRegistry()
	replay.GammaMetrics(reg, gamma.Sequence(p), m0, st, rec.Schedule())
	fmt.Println(st.Steps, reg.CounterValue("gamma.fired.R"), reg.Gauge("gamma.cardinality").Value())
	// Output: 4 4 1
}
