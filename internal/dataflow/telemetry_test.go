package dataflow_test

// The run-end fold (replay.DataflowMetrics) against its two sources: the
// Result a run returns and the schedule it recorded.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

func init() {
	dataflow.SpanRecorder = func() (dataflow.ScheduleRecorder, func() int64) {
		rec := replay.NewRecorder(replay.KindDataflow, "")
		return rec, func() int64 { return rec.Schedule().Profile().Span }
	}
}

// tracedRun runs g with a schedule recorder and folds the run's registry.
func tracedRun(t *testing.T, g *dataflow.Graph, opt dataflow.Options) (*dataflow.Result, *replay.Schedule, *telemetry.Registry) {
	t.Helper()
	rec := replay.NewRecorder(replay.KindDataflow, g.Name)
	opt.Schedule = rec
	res, err := dataflow.Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sched, reg := rec.Schedule(), telemetry.NewRegistry()
	replay.DataflowMetrics(reg, g, res, sched)
	return res, sched, reg
}

// checkDFTelemetryAgrees holds the folded registry to the Result and to the
// schedule: dataflow.firings is both Firings and the schedule's length,
// dataflow.fired.<v> the schedule's per-name count, which sums to Firings,
// firing_ns observed every recorded firing, the ticks series read Ticks —
// the fired_per_tick samples sum to the firings past the consts — and the
// peaks are the Result's.
func checkDFTelemetryAgrees(t *testing.T, g *dataflow.Graph, reg *telemetry.Registry, res *dataflow.Result, sched *replay.Schedule) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"dataflow.firings", reg.CounterValue("dataflow.firings"), res.Firings},
		{"dataflow.firings (schedule)", reg.CounterValue("dataflow.firings"), int64(len(sched.Steps))},
		{"dataflow.firing_ns count", reg.Histogram("dataflow.firing_ns").Count(), res.Firings},
		{"dataflow.ticks", reg.CounterValue("dataflow.ticks"), res.Ticks},
		{"dataflow.fired_per_tick count", reg.Histogram("dataflow.fired_per_tick").Count(), res.Ticks},
		{"dataflow.fired_per_tick sum", reg.Histogram("dataflow.fired_per_tick").Sum(), res.Firings - int64(len(g.RootNodes()))},
		{"dataflow.match_entries_peak", reg.Gauge("dataflow.match_entries_peak").Value(), int64(res.MatchPeak)},
		{"dataflow.queue_peak", reg.Gauge("dataflow.queue_peak").Value(), int64(res.QueuePeak)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	total := int64(0)
	for name, want := range sched.Profile().PerName {
		if got := reg.CounterValue("dataflow.fired." + name); got != want {
			t.Errorf("counter dataflow.fired.%s = %d, schedule %d", name, got, want)
		}
		total += want
	}
	if total != res.Firings {
		t.Errorf("the schedule's per-name counts sum to %d, result %d firings", total, res.Firings)
	}
}

// TestTelemetryDifferentialSequential folds Fig. 1: its timeline is one lane,
// dataflow/pe0, holding one span per firing, R1, R2 and R3 among them.
func TestTelemetryDifferentialSequential(t *testing.T) {
	g := paper.Fig1Graph()
	res, sched, reg := tracedRun(t, g, dataflow.Options{})
	checkDFTelemetryAgrees(t, g, reg, res, sched)
	if res.Firings != 7 {
		t.Fatalf("firings = %d, want 7", res.Firings)
	}
	var buf bytes.Buffer
	if err := sched.Timeline().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans, lanes []string
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M":
			lanes = append(lanes, e.Args["name"].(string))
		case e.Ph == "X" && e.TID == 0:
			spans = append(spans, e.Name)
		}
	}
	if strings.Join(lanes, ",") != "dataflow/pe0" || int64(len(spans)) != res.Firings {
		t.Fatalf("lanes %v with %d spans, want dataflow/pe0 with %d", lanes, len(spans), res.Firings)
	}
	for _, want := range []string{"R1", "R2", "R3"} {
		if !strings.Contains(","+strings.Join(spans, ",")+",", ","+want+",") {
			t.Errorf("spans %v: no %s", spans, want)
		}
	}
}

// TestTelemetryDifferentialParallel holds the fold to the Result on the Fig. 2
// loop under both accepted engine spellings and a Workers count, which is
// ignored.
func TestTelemetryDifferentialParallel(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, engine := range []string{"", dataflow.EngineMatrix} {
			g := paper.Fig2GraphObservable(1, 1, 40)
			res, sched, reg := tracedRun(t, g, dataflow.Options{Workers: workers, Engine: engine})
			checkDFTelemetryAgrees(t, g, reg, res, sched)
			if res.Firings == 0 {
				t.Fatalf("%q workers=%d: no firings", engine, workers)
			}
		}
	}
}

func TestTelemetryDifferentialMatrix(t *testing.T) {
	g := paper.Fig2GraphObservable(1, 1, 40)
	res, sched, reg := tracedRun(t, g, dataflow.Options{Engine: dataflow.EngineMatrix})
	checkDFTelemetryAgrees(t, g, reg, res, sched)
	if res.Ticks == 0 {
		t.Error("matrix run reported zero ticks")
	}
}
