package gamma

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/multiset"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// checkTelemetryAgrees holds the registry counters to exact agreement with
// the Stats the run returned — the telemetry layer's correctness contract:
// every counter increment sits adjacent to its Stats field increment.
func checkTelemetryAgrees(t *testing.T, rec *telemetry.Recorder, st *Stats) {
	t.Helper()
	reg := rec.Metrics
	for _, c := range []struct {
		name string
		want int64
	}{
		{"gamma.steps", st.Steps},
		{"gamma.probes", st.Probes},
		{"gamma.candidates", st.Candidates},
		{"gamma.arena_bytes", st.ArenaBytes},
	} {
		if got := reg.CounterValue(c.name); got != c.want {
			t.Errorf("counter %s = %d, stats say %d", c.name, got, c.want)
		}
	}
	for name, want := range st.Fired {
		if got := reg.CounterValue("gamma.fired." + name); got != want {
			t.Errorf("counter gamma.fired.%s = %d, stats say %d", name, got, want)
		}
	}
}

func TestTelemetryDifferentialSequential(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		rec := telemetry.New(0)
		m := intsMultiset()
		for i := int64(1); i <= 200; i++ {
			m.Add(multiset.New1(value.Int(i*7%211 + 1)))
		}
		p := MustProgram("min", minReaction())
		st, err := Run(p, m, Options{FullScan: fullScan, Recorder: rec})
		if err != nil {
			t.Fatalf("fullScan=%v: %v", fullScan, err)
		}
		checkTelemetryAgrees(t, rec, st)
		if st.Steps == 0 {
			t.Fatalf("fullScan=%v: run did no work", fullScan)
		}
	}
}

func TestTelemetryDifferentialParallel(t *testing.T) {
	for _, workers := range []int{2, 4} {
		rec := telemetry.New(0)
		m := intsMultiset()
		for i := int64(1); i <= 300; i++ {
			m.Add(multiset.New1(value.Int(i)))
		}
		p := MustProgram("min", minReaction())
		st, err := Run(p, m, Options{Workers: workers, Seed: int64(workers), Recorder: rec})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkTelemetryAgrees(t, rec, st)
		if st.Steps != 299 {
			t.Errorf("workers=%d: steps = %d, want 299", workers, st.Steps)
		}
	}
}

func TestTelemetryDifferentialFaultInjected(t *testing.T) {
	boom := errors.New("injected")
	for _, workers := range []int{1, 4} {
		rec := telemetry.New(0)
		m := intsMultiset()
		for i := int64(1); i <= 100; i++ {
			m.Add(multiset.New1(value.Int(i)))
		}
		var fired atomic.Int64 // the injector runs on every worker concurrently
		p := MustProgram("min", minReaction())
		st, err := Run(p, m, Options{
			Workers: workers, Seed: 7, Recorder: rec,
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
		// The run died mid-flight: the registry must still mirror the partial
		// Stats exactly, including the work that never committed.
		checkTelemetryAgrees(t, rec, st)
	}
}

// TestTelemetryEventsSequential pins the event-level contract of a traced
// run: one firing span per step on the worker track, cardinality in Arg.
func TestTelemetryEventsSequential(t *testing.T) {
	rec := telemetry.New(0)
	m := example1Input()
	st, err := Run(example1Program(), m, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap) != 1 || snap[0].Name != "gamma/w0" {
		t.Fatalf("tracks = %v, want [gamma/w0]", trackNames(snap))
	}
	firings := 0
	for _, e := range snap[0].Events {
		if e.Kind == telemetry.KindFiring {
			firings++
			if e.Arg <= 0 {
				t.Errorf("firing %s: cardinality payload %d, want > 0", e.Name, e.Arg)
			}
		}
	}
	if int64(firings) != st.Steps {
		t.Errorf("firing events = %d, steps = %d", firings, st.Steps)
	}
}

func trackNames(snap []telemetry.TrackEvents) []string {
	names := make([]string, len(snap))
	for i, tr := range snap {
		names[i] = tr.Name
	}
	return names
}

// TestTelemetryDisabledIsNil guards the fast path: with no recorder the
// sinks must resolve to nil (one branch per record site, nothing else).
func TestTelemetryDisabledIsNil(t *testing.T) {
	if s := newTelSink(Options{}, example1Program(), 0); s != nil {
		t.Fatalf("sink without recorder = %+v, want nil", s)
	}
	var nilSink *telSink
	// Every method must be a no-op on the nil receiver, not a panic.
	nilSink.probe()
	nilSink.candidates(2)
	nilSink.firing(0, "r", nilSink.begin(), multiset.New(), 0, 0)
}

func ExampleOptions_recorder() {
	rec := telemetry.New(0)
	m := example1Input()
	st, _ := Run(example1Program(), m, Options{Recorder: rec})
	fmt.Println(st.Steps, rec.Metrics.CounterValue("gamma.steps"))
	// Output: 3 3
}
