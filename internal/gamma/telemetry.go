package gamma

import (
	"fmt"
	"time"

	"repro/internal/multiset"
	"repro/internal/telemetry"
)

// telSink is the per-worker telemetry state of one execution, resolved once
// at loop start so the hot paths pay a single nil-check branch when the
// recorder is disabled (every method is a no-op on a nil receiver) and no
// map lookups when it is enabled. Counters mirror the Stats fields increment
// for increment — the differential tests in telemetry_test.go hold the two
// accountings to exact agreement.
type telSink struct {
	track *telemetry.Track

	steps  *telemetry.Counter
	probes *telemetry.Counter
	cands  *telemetry.Counter
	fired  []*telemetry.Counter   // per reaction index
	lat    []*telemetry.Histogram // per reaction index
	card   *telemetry.Gauge
	depth  *telemetry.Gauge
}

// newTelSink resolves the worker's track and instruments; nil when telemetry
// is disabled. The track name is "gamma/w<worker>".
func newTelSink(opt Options, p *Program, worker int) *telSink {
	rec := opt.Recorder
	if rec == nil {
		return nil
	}
	reg := rec.Metrics
	ts := &telSink{
		track:  rec.Track(fmt.Sprintf("gamma/w%d", worker)),
		steps:  reg.Counter("gamma.steps"),
		probes: reg.Counter("gamma.probes"),
		cands:  reg.Counter("gamma.candidates"),
		card:   reg.Gauge("gamma.cardinality"),
		depth:  reg.Gauge("gamma.worklist_depth"),
	}
	ts.fired = make([]*telemetry.Counter, len(p.Reactions))
	ts.lat = make([]*telemetry.Histogram, len(p.Reactions))
	for i, r := range p.Reactions {
		ts.fired[i] = reg.Counter("gamma.fired." + r.Name)
		ts.lat[i] = reg.Histogram("gamma.firing_ns." + r.Name)
	}
	return ts
}

// begin stamps the start of a probe→commit attempt; the zero time when
// telemetry is disabled.
func (t *telSink) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// probe accounts one match attempt, as a counter only: probes outnumber
// firings by the probe→match ratio and would dominate both the ring and the
// enabled-mode overhead.
func (t *telSink) probe() {
	if t == nil {
		return
	}
	t.probes.Inc()
}

// candidates accounts the n elements a probe (or probe batch) enumerated,
// mirroring Stats.Candidates.
func (t *telSink) candidates(n int64) {
	if t == nil {
		return
	}
	t.cands.Add(n)
}

// firing accounts one committed firing: the latency span since begin, with
// the post-commit cardinality — of the part the worker runs on, in a parallel
// run — and the scheduler wakeups the commit caused folded into the event
// payload.
func (t *telSink) firing(idx int, name string, start time.Time, m *multiset.Multiset, woken, depth int) {
	if t == nil {
		return
	}
	t.steps.Inc()
	t.fired[idx].Inc()
	card := int64(m.Len())
	t.card.Set(card)
	t.depth.Set(int64(depth))
	lat := time.Since(start)
	t.lat[idx].Observe(lat.Nanoseconds())
	t.track.SpanDur(telemetry.KindFiring, name, start, lat, card, int64(woken))
}
