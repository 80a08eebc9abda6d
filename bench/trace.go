package main

// In-memory span recorder for the traced pass. Spans are recorded from the
// benchmark's own code, around its calls into each layer; nothing inside the
// program is instrumented. The traced pass drives one op at a time on one
// goroutine, so the recorder is a plain stack and is not safe for concurrent
// use.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started; parent indexes tracer.spans (-1 for an op's root span).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// layerTotals aggregates every span of one name.
type layerTotals struct {
	root  string // name of the outermost span these were recorded under
	count int64
	total int64 // summed duration, ns
	self  int64 // summed duration minus the part child spans cover, ns
}

// maxKeptSpans bounds the raw spans kept for the trace file (about 30 MB of
// JSON); the per-name totals keep aggregating past it.
const maxKeptSpans = 200_000

type tracer struct {
	t0     time.Time
	spans  []span
	open   []openSpan
	totals map[string]*layerTotals
	counts map[string]float64
	ops    int32
}

type openSpan struct {
	idx      int32 // index in spans, -1 once past maxKeptSpans
	name     string
	start    int64
	children int64 // summed duration of direct children, ns
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: map[string]*layerTotals{}, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of the next op; every span until the matching
// end shares its op id.
func (t *tracer) beginOp(name string) {
	t.ops++
	t.begin(name)
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) { t.beginAt(name, t.now()) }

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration { return t.endAt(t.now()) }

// at converts a wall-clock reading taken elsewhere (the server-side handler
// wrapper) to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// beginAt and endAt are begin and end with a timestamp the caller read, for
// an interval observed on another goroutine and recorded after the fact.
func (t *tracer) beginAt(name string, start int64) {
	idx := int32(-1)
	if len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, start: start, parent: parent, op: t.ops})
	}
	t.open = append(t.open, openSpan{idx: idx, name: name, start: start})
}

func (t *tracer) endAt(end int64) time.Duration {
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	if o.idx >= 0 {
		t.spans[o.idx].end = end
	}
	dur := end - o.start
	lt := t.totals[o.name]
	if lt == nil {
		lt = &layerTotals{root: o.name}
		if len(t.open) > 0 {
			lt.root = t.open[0].name
		}
		t.totals[o.name] = lt
	}
	lt.count++
	lt.total += dur
	lt.self += dur - o.children
	if n := len(t.open); n > 0 {
		t.open[n-1].children += dur
	}
	return time.Duration(dur)
}

// leaf records a child interval of known length ending at end: a duration the
// program reported (queue wait, engine wall) for work that ran inside the
// innermost open span. It is clipped to that span's start.
func (t *tracer) leaf(name string, d time.Duration, end int64) {
	start := end - int64(d)
	if n := len(t.open); n > 0 {
		if lo := t.open[n-1].start; start < lo {
			start = lo
			if end < lo {
				end = lo
			}
		}
	}
	t.beginAt(name, start)
	t.endAt(end)
}

// count adds n to a named counter, recorded at the same boundary as the spans.
func (t *tracer) count(name string, n float64) { t.counts[name] += n }

// seconds returns the mean per-op duration of the named span.
func (t *tracer) seconds(name string, ops int) float64 {
	lt := t.totals[name]
	if lt == nil || ops == 0 {
		return 0
	}
	return float64(lt.total) / 1e9 / float64(ops)
}

// perOp returns the mean per-op value of the named counter.
func (t *tracer) perOp(name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return t.counts[name] / float64(ops)
}

// selfTable prints, for the spans recorded under root, each layer's self time
// per op and its share of root, and returns the share the layers below root
// explain (1 − root's own self time).
func (t *tracer) selfTable(w io.Writer, root string, ops int) float64 {
	rt := t.totals[root]
	if rt == nil || rt.total == 0 || ops == 0 {
		return 0
	}
	names := make([]string, 0, len(t.totals))
	for name, lt := range t.totals {
		if lt.root == root {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return t.totals[names[i]].self > t.totals[names[j]].self })
	fmt.Fprintf(w, "  %-26s %12s %12s %8s\n", "layer under "+root, "spans/op", "self s/op", "share")
	for _, name := range names {
		lt := t.totals[name]
		label := name
		if name == root {
			label = name + " (unexplained)"
		}
		fmt.Fprintf(w, "  %-26s %12.2f %12.6g %7.1f%%\n", label,
			float64(lt.count)/float64(ops), float64(lt.self)/1e9/float64(ops),
			100*float64(lt.self)/float64(rt.total))
	}
	return 1 - float64(rt.self)/float64(rt.total)
}

// traceEvent is one Chrome/Perfetto trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args traceEventArgs `json:"args"`
}

type traceEventArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Op     int `json:"op"`
}

// writeChrome writes the kept spans as a Chrome trace-event JSON array, one
// event per line so the file also greps well.
func (t *tracer) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	for i, s := range t.spans {
		ev := traceEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: traceEventArgs{ID: i, Parent: int(s.parent), Op: int(s.op)}}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(b)
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}
