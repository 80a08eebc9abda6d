// Package telemetry is the runtime observability layer shared by the gamma
// and dataflow runtimes: a low-overhead event recorder (per-worker ring
// buffers of timestamped events), a registry of atomic counters, gauges and
// latency histograms, and exporters — Chrome trace-event JSON (loadable in
// Perfetto, one track per worker/PE), a JSONL event stream, and a provenance
// DOT of the firing DAG (provenance.go).
//
// The design center is the disabled fast path: every runtime carries a
// *Recorder in its Options, and a nil recorder costs exactly one
// pointer-is-nil branch on the hot paths (the runtimes resolve a per-worker
// sink once per run and guard each record with `if sink == nil`). When
// enabled, the hot commit path records a single span event per committed
// firing — the firing latency, with the multiset cardinality and scheduler
// wakeup count folded into the event payload — while high-frequency
// occurrences (probes) only bump atomic counters.
//
// Concurrency contract: a Track has a single writer at a time (each worker
// or PE owns its track). The
// Registry is safe for arbitrary concurrent use. Snapshots of the event
// buffers must be taken after the traced run returns; Registry snapshots may
// be taken live (the -metrics-addr HTTP endpoint does).
package telemetry

import (
	"sort"
	"sync"
	"time"

	"repro/internal/symtab"
)

// EventKind classifies an event. The vocabulary is shared across runtimes;
// DESIGN.md §11 documents which runtime emits what.
type EventKind uint8

const (
	// KindFiring is a committed reaction application (gamma: the ApplyDelta
	// commit) or vertex activation (dataflow). A span: Dur is the latency
	// from probe/operand-match start to commit. Arg carries the multiset
	// cardinality (gamma) or pending-token depth (dataflow) after the
	// commit; Arg2 the number of scheduler wakeups the commit caused.
	KindFiring EventKind = iota
)

func (k EventKind) String() string {
	if k == KindFiring {
		return "firing"
	}
	return "unknown"
}

// Event is one recorded occurrence. TS is nanoseconds since the recorder was
// created; spans additionally carry Dur. Name is the reaction/vertex/phase
// name. Arg and Arg2 are kind-specific payloads (see EventKind).
type Event struct {
	TS   int64
	Dur  int64
	Arg  int64
	Arg2 int64
	Name string
	Kind EventKind
}

// ringEvent is the in-buffer form of an Event: the name is interned to a
// symtab.Sym so the struct is pointer-free. That keeps the ring out of the
// garbage collector entirely — the buffer lives in no-scan memory, appends
// need no write barrier, and a multi-megabyte ring adds zero marking work to
// the traced run (the dominant enabled-recorder cost before interning).
// Snapshot resolves names back to strings.
type ringEvent struct {
	ts   int64
	dur  int64
	arg  int64
	arg2 int64
	name symtab.Sym
	kind EventKind
}

// DefaultEventCap is the per-track ring capacity when New is given 0.
const DefaultEventCap = 1 << 14

// ringInitial is the first allocation of a track's event ring; rings double
// from here toward the recorder's cap as events arrive.
const ringInitial = 64

// Recorder owns the event tracks and the metrics registry of one observed
// run.
type Recorder struct {
	start time.Time
	cap   int
	// Metrics is the recorder's registry; never nil.
	Metrics *Registry

	// cDropped is the registry's telemetry.dropped_events counter: every
	// event the rings overwrote or discarded bumps it, so silent trace loss
	// is visible wherever the registry is (ServeMetrics, the -metrics table,
	// the service stats endpoint) instead of staying a private field.
	cDropped *Counter

	mu     sync.Mutex
	tracks []*Track
	byName map[string]*Track
}

// New returns a Recorder whose tracks hold up to eventCap events each
// (oldest overwritten first). eventCap 0 selects DefaultEventCap; negative
// selects a metrics-only recorder that buffers no events at all.
func New(eventCap int) *Recorder {
	switch {
	case eventCap == 0:
		eventCap = DefaultEventCap
	case eventCap < 0:
		eventCap = 0
	}
	r := &Recorder{
		start:   time.Now(),
		cap:     eventCap,
		Metrics: NewRegistry(),
		byName:  make(map[string]*Track),
	}
	r.cDropped = r.Metrics.Counter("telemetry.dropped_events")
	return r
}

// Dropped totals the events every track overwrote or discarded — the same
// number the telemetry.dropped_events registry counter carries.
func (r *Recorder) Dropped() int64 { return r.cDropped.Value() }

// Track returns the track with the given name, creating it on first use.
// Names follow the "<runtime-or-node>/w<worker>" convention; each track
// renders as one Perfetto thread. The returned track must have a single
// writer at a time.
func (r *Recorder) Track(name string) *Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t
	}
	t := &Track{name: name, rec: r}
	r.tracks = append(r.tracks, t)
	r.byName[name] = t
	return t
}

// Since returns the recorder-relative timestamp of t in nanoseconds.
func (r *Recorder) Since(t time.Time) int64 { return t.Sub(r.start).Nanoseconds() }

// Track is one worker/PE event ring. Appends are lock-free single-writer;
// the buffer keeps the most recent cap events and counts what it dropped.
type Track struct {
	name    string
	rec     *Recorder
	buf     []ringEvent
	head    int   // next write position
	total   int64 // events ever appended
	dropped int64 // events overwritten or discarded (metrics-only recorder)
}

// Name returns the track's name.
func (t *Track) Name() string { return t.name }

func (t *Track) append(e ringEvent) {
	if t.rec.cap == 0 {
		t.dropped++
		t.rec.cDropped.Inc()
		return
	}
	if t.total >= int64(len(t.buf)) && len(t.buf) < t.rec.cap {
		// The ring starts empty and doubles toward cap as events arrive, so a
		// short traced run costs a short buffer — eager full-cap rings made a
		// 3-step service run allocate 256 kB (see TestTraceAllocationCost).
		// Before the first wrap head == total, so the old buffer is already
		// oldest-first and the next write slot is its former length.
		n := 2 * len(t.buf)
		if n == 0 {
			n = ringInitial
		}
		if n > t.rec.cap {
			n = t.rec.cap
		}
		buf := make([]ringEvent, n)
		t.head = copy(buf, t.buf)
		t.buf = buf
	}
	if t.total >= int64(len(t.buf)) {
		t.dropped++
		t.rec.cDropped.Inc()
	}
	t.buf[t.head] = e
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	t.total++
}

// SpanDur records a span that started at start and lasted dur. Callers that
// already measured the latency (the gamma firing path feeds the same reading
// to its histogram) use this to avoid a second clock read.
func (t *Track) SpanDur(kind EventKind, name string, start time.Time, dur time.Duration, arg, arg2 int64) {
	t.append(ringEvent{ts: t.rec.Since(start), dur: dur.Nanoseconds(), kind: kind, name: symtab.Intern(name), arg: arg, arg2: arg2})
}

// TrackEvents is one track's snapshot: its buffered events in chronological
// order and the count of events that no longer fit the ring.
type TrackEvents struct {
	Name    string
	Events  []Event
	Dropped int64
}

// Snapshot copies every track's buffered events, oldest first. Call it after
// the traced run has returned (tracks are single-writer, not locked).
func (r *Recorder) Snapshot() []TrackEvents {
	r.mu.Lock()
	tracks := make([]*Track, len(r.tracks))
	copy(tracks, r.tracks)
	r.mu.Unlock()
	out := make([]TrackEvents, 0, len(tracks))
	for _, t := range tracks {
		n := t.total
		if n > int64(len(t.buf)) {
			n = int64(len(t.buf))
		}
		evs := make([]Event, 0, n)
		if n > 0 {
			// Oldest-first: the ring wraps at head.
			start := 0
			if t.total > int64(len(t.buf)) {
				start = t.head
			}
			for i := int64(0); i < n; i++ {
				e := t.buf[(start+int(i))%len(t.buf)]
				evs = append(evs, Event{
					TS: e.ts, Dur: e.dur, Arg: e.arg, Arg2: e.arg2,
					Name: symtab.Name(e.name), Kind: e.kind,
				})
			}
		}
		// Spans are appended at their end time but stamped with their start
		// time, so a span that began before an already-recorded one can
		// follow it in the buffer while preceding it in TS order. Restore
		// per-track TS monotonicity for the exporters.
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		out = append(out, TrackEvents{Name: t.name, Events: evs, Dropped: t.dropped})
	}
	return out
}
