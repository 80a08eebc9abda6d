package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/replay"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// TelemetryFlags bundles the observability flags shared by the cmd/ binaries
// (-trace, -trace-format, -metrics) and their lifecycle: flag registration,
// the schedule recorder, and the end-of-run export. Every output is a fold
// over the one firing record, the run's schedule: a command that registers
// the flags but whose user passes none of them gets a nil Schedule — the
// runtimes' untraced path.
type TelemetryFlags struct {
	// Trace is the output file of the execution trace; empty disables it.
	Trace string
	// TraceFormat selects the trace export: "perfetto" (Chrome trace-event
	// JSON for ui.perfetto.dev), "dot" (Graphviz provenance DAG of the firing
	// dependencies — on a Gamma run, the paper's dataflow graph), "jsonl", or
	// "schedule" (the executable replay schedule of internal/replay).
	TraceFormat string
	// Metrics prints the run's registry as a table on stdout after the run.
	Metrics bool

	format telemetry.Format
	sched  *replay.Recorder
}

// Register declares the telemetry flags on fs (the default FlagSet in the
// cmd/ binaries).
func (t *TelemetryFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Trace, "trace", "", "write an execution trace to this file (see -trace-format)")
	fs.StringVar(&t.TraceFormat, "trace-format", "perfetto", "trace format: perfetto, dot (provenance DAG), jsonl or schedule (replayable)")
	fs.BoolVar(&t.Metrics, "metrics", false, "print the telemetry metrics table after the run")
}

// Enabled reports whether any telemetry output was requested.
func (t *TelemetryFlags) Enabled() bool { return t.Trace != "" || t.Metrics }

// Start validates the flags and, when any output was requested, builds the
// schedule recorder of the run's kind (replay.KindGamma or KindDataflow)
// every output is folded from. Call Finish before exiting.
func (t *TelemetryFlags) Start(kind string) error {
	if t.Trace != "" {
		f, err := telemetry.ParseFormat(t.TraceFormat)
		if err != nil {
			return err
		}
		t.format = f
	}
	if !t.Enabled() {
		return nil
	}
	t.sched = replay.NewRecorder(kind, t.Trace)
	return nil
}

// Schedule is the schedule recorder to hand schema.RunSpec.Lower; non-nil
// exactly when Enabled.
func (t *TelemetryFlags) Schedule() *replay.Recorder { return t.sched }

// PrintMetrics prints on w, when -metrics asked for it, the table of the run
// pipeline's fold (schema.Outcome.Metrics) of out and the schedule; nothing
// when the engine refused the run before it started.
func (t *TelemetryFlags) PrintMetrics(w io.Writer, out *schema.Outcome) {
	if !t.Metrics {
		return
	}
	if reg := out.Metrics(t.sched.Schedule()); reg != nil {
		fmt.Fprint(w, reg.Table())
	}
}

// Finish writes the trace file in the selected format. Safe to call when
// telemetry is disabled, and on error paths — a partial run's trace is often
// exactly what is wanted (for the schedule format it is the replayable
// committed prefix).
func (t *TelemetryFlags) Finish() error {
	if t.sched == nil || t.Trace == "" {
		return nil
	}
	f, err := os.Create(t.Trace)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	err = t.sched.Schedule().WriteTrace(f, t.format)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
