package replay

import (
	"io"

	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/telemetry"
)

// GammaMetrics is the run-end fold of a Γ run: it fills reg from the run's
// Stats and its recorded schedule s. gamma.steps, probes, candidates and
// arena_bytes are the Stats fields; gamma.fired.<r> is the schedule's
// per-name count, gamma.firing_ns.<r> its recorded durations, and
// gamma.cardinality steps from m0, the initial multiset's size, by produced −
// consumed at every firing, so its max is the largest multiset the run passed
// through. Every reaction of p gets its fired and firing_ns series, fired or
// not.
func GammaMetrics(reg *telemetry.Registry, p *gamma.Plan, m0 int, st *gamma.Stats, s *Schedule) {
	reg.Counter("gamma.steps").Add(st.Steps)
	reg.Counter("gamma.probes").Add(st.Probes)
	reg.Counter("gamma.candidates").Add(st.Candidates)
	reg.Counter("gamma.arena_bytes").Add(st.ArenaBytes)
	for _, stage := range p.Stages {
		for _, r := range stage.Reactions {
			reg.Counter("gamma.fired." + r.Name)
			reg.Histogram("gamma.firing_ns." + r.Name)
		}
	}
	card, n := reg.Gauge("gamma.cardinality"), int64(m0)
	for i := range s.Steps {
		step := &s.Steps[i]
		reg.Counter("gamma.fired." + step.Name).Inc()
		reg.Histogram("gamma.firing_ns." + step.Name).Observe(step.Dur)
		n += int64(len(step.Produced) - len(step.Consumed))
		card.Set(n)
	}
}

// DataflowMetrics is the run-end fold of a dataflow run of g: it fills reg
// from the Result and the recorded schedule s. dataflow.firings, ticks,
// match_entries_peak and queue_peak are the Result's; dataflow.fired.<v> is
// the schedule's per-name count, dataflow.firing_ns its recorded durations,
// and dataflow.fired_per_tick the work profile's width at every dependency
// level past the consts that the run finished (Ticks of them: a level is a
// tick, DESIGN.md §14). Every vertex of g gets its fired series.
func DataflowMetrics(reg *telemetry.Registry, g *dataflow.Graph, res *dataflow.Result, s *Schedule) {
	reg.Counter("dataflow.firings").Add(res.Firings)
	reg.Counter("dataflow.ticks").Add(res.Ticks)
	reg.Gauge("dataflow.match_entries_peak").Set(int64(res.MatchPeak))
	reg.Gauge("dataflow.queue_peak").Set(int64(res.QueuePeak))
	for _, n := range g.Nodes {
		reg.Counter("dataflow.fired." + n.Name)
	}
	rep := s.Profile()
	for name, n := range rep.PerName {
		reg.Counter("dataflow.fired." + name).Add(n)
	}
	perTick := reg.Histogram("dataflow.fired_per_tick")
	for d := 1; d <= int(res.Ticks) && d < len(rep.Profile); d++ {
		perTick.Observe(rep.Profile[d])
	}
	lat := reg.Histogram("dataflow.firing_ns")
	for i := range s.Steps {
		lat.Observe(s.Steps[i].Dur)
	}
}

// lanePrefix names the Timeline lanes of a schedule kind: a sequential run's
// one lane reads gamma/w0 or dataflow/pe0.
var lanePrefix = map[string]string{KindGamma: "gamma/w", KindDataflow: "dataflow/pe"}

// Timeline folds the recorded firings into one span each, for the Perfetto
// and JSONL exports.
func (s *Schedule) Timeline() *telemetry.Timeline {
	tl := telemetry.NewTimeline(lanePrefix[s.Kind])
	for i := range s.Steps {
		step := &s.Steps[i]
		tl.RecordSpan(step.Step, step.Name, step.Start, step.Dur)
	}
	return tl
}

// WriteTrace writes the schedule as the trace format f: the timeline as
// Perfetto JSON (the default) or JSONL, the firing DAG as DOT, or the
// schedule itself.
func (s *Schedule) WriteTrace(w io.Writer, f telemetry.Format) error {
	switch f {
	case telemetry.FormatDOT:
		return s.WriteDOT(w)
	case telemetry.FormatJSONL:
		return s.Timeline().WriteJSONL(w)
	case telemetry.FormatSchedule:
		return s.Encode(w)
	default:
		return s.Timeline().WritePerfetto(w)
	}
}
