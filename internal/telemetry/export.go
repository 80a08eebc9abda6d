package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The Perfetto exporter emits Chrome trace-event JSON ("JSON object format"):
// a traceEvents array of metadata (ph "M"), complete-span (ph "X") and
// counter (ph "C") events. One recorder track maps to one
// thread (tid) inside a single process (pid 1); Perfetto renders each as its
// own timeline row named by a thread_name metadata event. Timestamps are
// microseconds (the format's unit), recorder-relative.

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

// perfettoEvent converts one recorded firing for track tid into its span and
// a counter sample of the post-commit cardinality/depth it carries in Arg
// (the Perfetto counter track plots the multiset shrinking toward the stable
// state).
func perfettoEvent(e Event, tid int) (traceEvent, traceEvent) {
	d := usec(e.Dur)
	te := traceEvent{Name: e.Name, Ph: "X", TS: usec(e.TS), Dur: &d, PID: tracePID, TID: tid,
		Args: map[string]any{"kind": e.Kind.String(), "cardinality": e.Arg, "woken": e.Arg2}}
	ctr := traceEvent{
		Name: "cardinality", Ph: "C", TS: usec(e.TS + e.Dur),
		PID: tracePID, TID: tid,
		Args: map[string]any{"elements": e.Arg},
	}
	return te, ctr
}

// WritePerfetto exports the recorder's event buffers as Chrome trace-event
// JSON, loadable at https://ui.perfetto.dev. Take the snapshot after the
// traced run has returned.
func WritePerfetto(w io.Writer, r *Recorder) error {
	tracks := r.Snapshot()
	events := make([]traceEvent, 0, 64)
	for tid, tr := range tracks {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": tr.Name},
		})
		for _, e := range tr.Events {
			te, ctr := perfettoEvent(e, tid)
			events = append(events, te, ctr)
		}
	}
	// Canonical order: per-track nondecreasing ts. Counter samples are
	// stamped at their span's end and would otherwise interleave backwards
	// past the next span's start. Stable, so metadata stays first per track.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return events[i].TS < events[j].TS
	})
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// jsonlEvent is one line of the JSONL export.
type jsonlEvent struct {
	Track string `json:"track"`
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	TSNS  int64  `json:"ts_ns"`
	DurNS int64  `json:"dur_ns,omitempty"`
	Arg   int64  `json:"arg,omitempty"`
	Arg2  int64  `json:"arg2,omitempty"`
}

// WriteJSONL exports the recorder's event buffers as one JSON object per
// line — the grep/jq-friendly raw form of the same data WritePerfetto
// renders. Dropped-event counts are reported as a trailing comment-free
// summary object per track with kind "dropped".
func WriteJSONL(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, tr := range r.Snapshot() {
		for _, e := range tr.Events {
			le := jsonlEvent{
				Track: tr.Name, Kind: e.Kind.String(), Name: e.Name,
				TSNS: e.TS, DurNS: e.Dur, Arg: e.Arg, Arg2: e.Arg2,
			}
			if err := enc.Encode(le); err != nil {
				return err
			}
		}
		if tr.Dropped > 0 {
			if err := enc.Encode(jsonlEvent{Track: tr.Name, Kind: "dropped", Arg: tr.Dropped}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Format names an export format accepted by Write.
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
