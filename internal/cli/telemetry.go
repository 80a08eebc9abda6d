package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/replay"
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
	// ScheduleKind names what the schedule recorder records —
	// replay.KindGamma or replay.KindDataflow. The command sets it before
	// Start; it is not a flag.
	ScheduleKind string

	format telemetry.Format
	sched  *replay.Recorder
	fold   func(*telemetry.Registry, *replay.Schedule) // the run-end fold for -metrics
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
// schedule recorder every output is folded from at Finish. Call Finish
// before exiting.
func (t *TelemetryFlags) Start() error {
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
	kind := t.ScheduleKind
	if kind == "" {
		kind = replay.KindGamma
	}
	t.sched = replay.NewRecorder(kind, t.Trace)
	return nil
}

// Schedule is the schedule recorder to pass as Options.Schedule; non-nil
// exactly when Enabled. (The runtime option is an interface, so outside an
// Enabled branch assign it through a nil check — a typed nil would defeat the
// runtimes' untraced path.)
func (t *TelemetryFlags) Schedule() *replay.Recorder { return t.sched }

// GammaRun hands Finish what -metrics folds besides the schedule: the plan
// that ran, the initial multiset's size m0 and the Stats it returned, partial
// ones included.
func (t *TelemetryFlags) GammaRun(p *gamma.Plan, m0 int, st *gamma.Stats) {
	t.fold = func(reg *telemetry.Registry, s *replay.Schedule) { replay.GammaMetrics(reg, p, m0, st, s) }
}

// DataflowRun is GammaRun for a dataflow run of g.
func (t *TelemetryFlags) DataflowRun(g *dataflow.Graph, res *dataflow.Result) {
	if res == nil { // the graph or engine was refused: nothing ran
		return
	}
	t.fold = func(reg *telemetry.Registry, s *replay.Schedule) { replay.DataflowMetrics(reg, g, res, s) }
}

// Finish writes the trace file in the selected format and prints the metrics
// table. Safe to call when telemetry is disabled, and on error paths — a
// partial run's trace is often exactly what is wanted (for the schedule
// format it is the replayable committed prefix).
func (t *TelemetryFlags) Finish() error {
	if t.sched == nil {
		return nil
	}
	s := t.sched.Schedule()
	if t.Trace != "" {
		f, err := os.Create(t.Trace)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		err = s.WriteTrace(f, t.format)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if t.Metrics && t.fold != nil {
		reg := telemetry.NewRegistry()
		t.fold(reg, s)
		fmt.Print(reg.Table())
	}
	return nil
}
