package dataflow

import (
	"time"

	"repro/internal/telemetry"
)

// dfSink is the telemetry state of one execution, resolved once per run so a
// disabled recorder costs one nil-check branch per record site (all methods
// are no-ops on a nil receiver). Counters mirror the Result fields
// increment for increment; the differential tests hold them to exact
// agreement.
type dfSink struct {
	track *telemetry.Track
	reg   *telemetry.Registry

	firings *telemetry.Counter
	fired   []*telemetry.Counter // by NodeID
	lat     *telemetry.Histogram
	depth   *telemetry.Gauge
	ticks   *telemetry.Counter   // FIFO levels that fired (Result.Ticks)
	perTick *telemetry.Histogram // activations fired per level
}

// newDFSink resolves the run's track, "dataflow/pe0", and instruments; nil
// when telemetry is disabled.
func newDFSink(opt Options, g *Graph) *dfSink {
	rec := opt.Recorder
	if rec == nil {
		return nil
	}
	reg := rec.Metrics
	s := &dfSink{
		track:   rec.Track("dataflow/pe0"),
		reg:     reg,
		firings: reg.Counter("dataflow.firings"),
		lat:     reg.Histogram("dataflow.firing_ns"),
		depth:   reg.Gauge("dataflow.queue_depth"),
		ticks:   reg.Counter("dataflow.ticks"),
		perTick: reg.Histogram("dataflow.fired_per_tick"),
	}
	s.fired = make([]*telemetry.Counter, len(g.Nodes))
	for _, n := range g.Nodes {
		s.fired[n.ID] = reg.Counter("dataflow.fired." + n.Name)
	}
	return s
}

// begin stamps the start of a firing; the zero time when disabled.
func (s *dfSink) begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// firing accounts one vertex activation: the latency span since begin, with
// the engine's current token depth (queued or in flight) and the tokens the
// firing emitted in the payload.
func (s *dfSink) firing(id NodeID, name string, start time.Time, depth int64, emitted int) {
	if s == nil {
		return
	}
	s.firings.Inc()
	s.fired[id].Inc()
	s.depth.Set(depth)
	lat := time.Since(start)
	s.lat.Observe(lat.Nanoseconds())
	s.track.SpanDur(telemetry.KindFiring, name, start, lat, depth, int64(emitted))
}

// tick accounts one FIFO level that fired and the activations it fired.
func (s *dfSink) tick(fired int) {
	if s == nil {
		return
	}
	s.ticks.Inc()
	s.perTick.Observe(int64(fired))
}

// peaks publishes the run's high-water marks — activations waiting in the
// matching table and tokens queued in the worklist — once, at run end: the
// matching work no per-firing counter shows.
func (s *dfSink) peaks(entries, queued int) {
	if s == nil {
		return
	}
	s.reg.Gauge("dataflow.match_entries_peak").Set(int64(entries))
	s.reg.Gauge("dataflow.queue_peak").Set(int64(queued))
}
