package dataflow

import (
	"testing"

	"repro/internal/telemetry"
)

// checkDFTelemetryAgrees holds the registry counters to exact agreement with
// the Result of the run — the dataflow side of the differential contract.
func checkDFTelemetryAgrees(t *testing.T, rec *telemetry.Recorder, res *Result) {
	t.Helper()
	reg := rec.Metrics
	if got := reg.CounterValue("dataflow.firings"); got != res.Firings {
		t.Errorf("counter dataflow.firings = %d, result says %d", got, res.Firings)
	}
	for name, want := range res.PerNode() {
		if got := reg.CounterValue("dataflow.fired." + name); got != want {
			t.Errorf("counter dataflow.fired.%s = %d, result says %d", name, got, want)
		}
	}
}

func TestTelemetryDifferentialSequential(t *testing.T) {
	rec := telemetry.New(0)
	g := buildFig1(1, 5, 3, 2)
	res, err := Run(g, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	checkDFTelemetryAgrees(t, rec, res)
	if res.Firings != 7 {
		t.Fatalf("firings = %d, want 7", res.Firings)
	}
	firings := 0
	for _, tr := range rec.Snapshot() {
		for _, e := range tr.Events {
			if e.Kind == telemetry.KindFiring {
				firings++
			}
		}
	}
	if int64(firings) != res.Firings {
		t.Errorf("firing events = %d, result.Firings = %d", firings, res.Firings)
	}
}

// TestTelemetryDifferentialParallel holds the counters to the Result on the
// loop graph under both schedules and a Workers count, which is ignored.
func TestTelemetryDifferentialParallel(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, e := range engineOptions {
			rec := telemetry.New(0)
			opt := e.opt
			opt.Workers, opt.Recorder = workers, rec
			res, err := Run(buildLoop(1, 1, 40), opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", e.name, workers, err)
			}
			checkDFTelemetryAgrees(t, rec, res)
			if res.Firings == 0 {
				t.Fatalf("%s workers=%d: no firings", e.name, workers)
			}
		}
	}
}

func TestTelemetryDisabledSinkIsNil(t *testing.T) {
	g := buildFig1(1, 5, 3, 2)
	if s := newDFSink(Options{}, g); s != nil {
		t.Fatalf("sink without recorder = %+v, want nil", s)
	}
	var nilSink *dfSink
	nilSink.firing(0, "n", nilSink.begin(), 0, 0)
}
