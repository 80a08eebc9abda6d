package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/telemetry"
)

// TelemetryFlags bundles the observability flags shared by the cmd/ binaries
// (-trace, -trace-format, -metrics, -metrics-addr, -pprof) and their
// lifecycle: flag registration, recorder construction, the live metrics
// endpoint, and the end-of-run export. A command that registers the flags but
// whose user passes none of them gets a nil Recorder — the runtimes' disabled
// fast path.
type TelemetryFlags struct {
	// Trace is the output file of the execution trace; empty disables it.
	Trace string
	// TraceFormat selects the trace export: "perfetto" (Chrome trace-event
	// JSON for ui.perfetto.dev), "dot" (Graphviz provenance DAG of the firing
	// dependencies — on a Gamma run, the paper's dataflow graph), "jsonl", or
	// "schedule" (the executable replay schedule of internal/replay).
	TraceFormat string
	// Metrics prints the registry as a table on stdout after the run.
	Metrics bool
	// MetricsAddr serves live registry snapshots as JSON over HTTP for the
	// duration of the run; empty disables the endpoint.
	MetricsAddr string
	// Pprof mounts the net/http/pprof introspection handlers under
	// /debug/pprof/ on the metrics endpoint; requires MetricsAddr.
	Pprof bool
	// ScheduleKind names what the schedule recorder records —
	// replay.KindGamma or replay.KindDataflow. The command sets it before
	// Start; it is not a flag.
	ScheduleKind string

	format   telemetry.Format
	rec      *telemetry.Recorder
	labeler  func(string) string
	sched    *replay.Recorder
	closeSrv func()
}

// Register declares the telemetry flags on fs (the default FlagSet in the
// cmd/ binaries).
func (t *TelemetryFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Trace, "trace", "", "write an execution trace to this file (see -trace-format)")
	fs.StringVar(&t.TraceFormat, "trace-format", "perfetto", "trace format: perfetto, dot (provenance DAG), jsonl or schedule (replayable)")
	fs.BoolVar(&t.Metrics, "metrics", false, "print the telemetry metrics table after the run")
	fs.StringVar(&t.MetricsAddr, "metrics-addr", "", "serve live metrics JSON on this HTTP address during the run (e.g. localhost:6060)")
	fs.BoolVar(&t.Pprof, "pprof", false, "also serve /debug/pprof/ on the -metrics-addr endpoint")
}

// Enabled reports whether any telemetry output was requested.
func (t *TelemetryFlags) Enabled() bool {
	return t.Trace != "" || t.Metrics || t.MetricsAddr != ""
}

// Start validates the flags and builds the collectors: the recorder (nil when
// nothing was requested, keeping the runtimes on their fast path), the
// schedule recorder for the schedule and dot formats (the provenance DAG is
// folded from the recorded schedule at Finish; labeler renders its element
// keys, nil keeps them raw), and the live metrics endpoint. Call Finish
// before exiting.
func (t *TelemetryFlags) Start(labeler func(string) string) error {
	if t.Trace != "" {
		f, err := telemetry.ParseFormat(t.TraceFormat)
		if err != nil {
			return err
		}
		t.format = f
	}
	if t.Pprof && t.MetricsAddr == "" {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("telemetry: -pprof requires -metrics-addr (the handlers mount on the metrics endpoint)"))
	}
	if !t.Enabled() {
		return nil
	}
	t.rec = telemetry.New(0)
	t.labeler = labeler
	if t.format == telemetry.FormatSchedule || t.format == telemetry.FormatDOT {
		kind := t.ScheduleKind
		if kind == "" {
			kind = replay.KindGamma
		}
		t.sched = replay.NewRecorder(kind, t.Trace)
	}
	if t.MetricsAddr != "" {
		mux := telemetry.MetricsMux(t.rec.Metrics)
		if t.Pprof {
			telemetry.MountPprof(mux)
		}
		addr, closeSrv, err := telemetry.ServeMux(t.MetricsAddr, mux)
		if err != nil {
			return err
		}
		t.closeSrv = closeSrv
		fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", addr)
		if t.Pprof {
			fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
		}
	}
	return nil
}

// Recorder is the recorder to pass into the runtime Options; nil when
// telemetry is disabled.
func (t *TelemetryFlags) Recorder() *telemetry.Recorder { return t.rec }

// Schedule is the schedule recorder to pass as Options.Schedule; non-nil
// only for the schedule and dot trace formats. (The runtime option is an
// interface, so assign it through a nil check — a typed nil would defeat the
// runtimes' disabled fast path.)
func (t *TelemetryFlags) Schedule() *replay.Recorder { return t.sched }

// Finish stops the metrics endpoint, writes the trace file in the selected
// format and prints the metrics table. Safe to call when telemetry is
// disabled, and on error paths — a partial run's trace is often exactly what
// is wanted (for the schedule format it is the replayable committed prefix).
func (t *TelemetryFlags) Finish() error {
	if t.closeSrv != nil {
		t.closeSrv()
		t.closeSrv = nil
	}
	if t.rec == nil {
		return nil
	}
	if t.Trace != "" {
		f, err := os.Create(t.Trace)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		switch t.format {
		case telemetry.FormatPerfetto:
			err = telemetry.WritePerfetto(f, t.rec)
		case telemetry.FormatDOT:
			prov := telemetry.NewProvenance()
			prov.Labeler = t.labeler
			t.sched.Schedule().Each(prov.RecordFiring)
			err = prov.WriteDOT(f)
		case telemetry.FormatJSONL:
			err = telemetry.WriteJSONL(f, t.rec)
		case telemetry.FormatSchedule:
			err = t.sched.Schedule().Encode(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if t.Metrics {
		fmt.Print(t.rec.Metrics.Table())
	}
	return nil
}
