package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Timeline lays a run's recorded firings out in time: a post-run fold over
// the commit-ordered schedule, fed one span per firing
// (replay.Schedule.Timeline). Spans are packed greedily into lanes that never
// overlap — by start, each into the first lane free by then — so a sequential
// run fills one lane and a parallel one no more lanes than it ran workers.
// Lane i is named prefix+i ("gamma/w0", "dataflow/pe0"). Not safe for
// concurrent use.
type Timeline struct {
	prefix string
	spans  []span
}

// span is one recorded firing: its name, the step it is in the schedule,
// and its start and duration in nanoseconds since the recording began.
type span struct {
	name       string
	step       int
	start, dur int64
}

// NewTimeline returns an empty timeline whose lanes are named prefix+i.
func NewTimeline(prefix string) *Timeline { return &Timeline{prefix: prefix} }

// RecordSpan adds the firing that is step of the schedule.
func (t *Timeline) RecordSpan(step int, name string, start, dur int64) {
	t.spans = append(t.spans, span{name: name, step: step, start: start, dur: dur})
}

// lanes packs the spans, each lane in start order.
func (t *Timeline) lanes() [][]span {
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var lanes [][]span
	var free []int64 // per lane, the end of its last span
	for _, s := range spans {
		i := 0
		for i < len(lanes) && free[i] > s.start {
			i++
		}
		if i == len(lanes) {
			lanes, free = append(lanes, nil), append(free, 0)
		}
		lanes[i], free[i] = append(lanes[i], s), s.start+s.dur
	}
	return lanes
}

// The Perfetto exporter emits Chrome trace-event JSON ("JSON object format"):
// a traceEvents array of metadata (ph "M") and complete-span (ph "X") events.
// One lane maps to one thread (tid) inside a single process (pid 1); Perfetto
// renders each as its own timeline row named by a thread_name metadata
// event. Timestamps are microseconds (the format's unit).

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracePID is the single synthetic process id of an exported trace.
const tracePID = 1

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WritePerfetto exports the timeline as Chrome trace-event JSON, loadable at
// https://ui.perfetto.dev: one span per recorded firing, carrying its step
// number in the schedule.
func (t *Timeline) WritePerfetto(w io.Writer) error {
	events := make([]traceEvent, 0, len(t.spans)+1)
	for tid, lane := range t.lanes() {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": t.lane(tid)},
		})
		for _, s := range lane {
			d := usec(s.dur)
			events = append(events, traceEvent{Name: s.name, Ph: "X", TS: usec(s.start), Dur: &d,
				PID: tracePID, TID: tid, Args: map[string]any{"step": s.step}})
		}
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ns"}
	return json.NewEncoder(w).Encode(doc)
}

func (t *Timeline) lane(i int) string { return fmt.Sprintf("%s%d", t.prefix, i) }

// jsonlEvent is one line of the JSONL export.
type jsonlEvent struct {
	Track string `json:"track"`
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Step  int    `json:"step"`
	TSNS  int64  `json:"ts_ns"`
	DurNS int64  `json:"dur_ns"`
}

// WriteJSONL exports the timeline as one JSON object per firing, lane by
// lane — the grep/jq-friendly raw form of what WritePerfetto renders.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, lane := range t.lanes() {
		for _, s := range lane {
			if err := enc.Encode(jsonlEvent{Track: t.lane(i), Kind: "firing", Name: s.name, Step: s.step, TSNS: s.start, DurNS: s.dur}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Format names a trace export format (written by replay.Schedule.WriteTrace).
type Format string

const (
	FormatPerfetto Format = "perfetto"
	FormatDOT      Format = "dot"
	FormatJSONL    Format = "jsonl"
	// FormatSchedule is the executable-schedule export (package replay):
	// the run's firings in commit order, replayable step for step.
	FormatSchedule Format = "schedule"
)

// ParseFormat validates a -trace-format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatPerfetto, FormatDOT, FormatJSONL, FormatSchedule:
		return Format(s), nil
	}
	return "", fmt.Errorf("telemetry: unknown trace format %q (want perfetto, dot, jsonl or schedule)", s)
}
