package dataflow

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// dfSink is the per-PE telemetry state of one execution, resolved once per
// PE so a disabled recorder costs one nil-check branch per record site (all
// methods are no-ops on a nil receiver). Counters mirror the Result fields
// increment for increment; the differential tests hold them to exact
// agreement.
type dfSink struct {
	track *telemetry.Track
	reg   *telemetry.Registry

	firings *telemetry.Counter
	fired   []*telemetry.Counter // by NodeID
	lat     *telemetry.Histogram
	depth   *telemetry.Gauge
	ticks   *telemetry.Counter   // matrix engine bulk-synchronous rounds
	perTick *telemetry.Histogram // activations fired per round
}

// newDFSink resolves the PE's track and instruments; nil when telemetry is
// disabled. PE -1 is the coordinator (const-token injection in the parallel
// runtime); 0..N-1 are the PEs, named "dataflow/pe<i>".
func newDFSink(opt Options, g *Graph, pe int) *dfSink {
	rec := opt.Recorder
	if rec == nil {
		return nil
	}
	name := fmt.Sprintf("dataflow/pe%d", pe)
	if pe < 0 {
		name = "dataflow/init"
	}
	reg := rec.Metrics
	s := &dfSink{
		track:   rec.Track(name),
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
// the runtime's current token depth (sequential queue length or parallel
// in-flight count) and the tokens the firing emitted in the payload.
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

// tick accounts one bulk-synchronous round of the matrix engine and the size
// of its fire-vector.
func (s *dfSink) tick(fired int) {
	if s == nil {
		return
	}
	s.ticks.Inc()
	s.perTick.Observe(int64(fired))
}

// peaks publishes the run's high-water marks — activations waiting in the
// matching tables and tokens queued in the engine, each summed over PEs —
// once, at run end: the matching work no per-firing counter shows.
func (s *dfSink) peaks(entries, queued int) {
	if s == nil {
		return
	}
	s.reg.Gauge("dataflow.match_entries_peak").Set(int64(entries))
	s.reg.Gauge("dataflow.queue_peak").Set(int64(queued))
}
