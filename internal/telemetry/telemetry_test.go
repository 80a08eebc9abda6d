package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTrackGetOrCreate(t *testing.T) {
	r := New(0)
	a := r.Track("gamma/w0")
	b := r.Track("gamma/w0")
	if a != b {
		t.Fatal("same name must return the same track")
	}
	if c := r.Track("gamma/w1"); c == a {
		t.Fatal("different names must not alias")
	}
	if a.Name() != "gamma/w0" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	r := New(4)
	tr := r.Track("t")
	for i := 0; i < 10; i++ {
		tr.SpanDur(KindFiring, "p", time.Now(), 0, int64(i), 0)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("tracks = %d", len(snap))
	}
	evs := snap[0].Events
	if len(evs) != 4 {
		t.Fatalf("buffered = %d, want 4", len(evs))
	}
	// The ring keeps the most recent cap events, oldest first.
	for i, e := range evs {
		if want := int64(6 + i); e.Arg != want {
			t.Errorf("event %d: arg = %d, want %d", i, e.Arg, want)
		}
	}
	if snap[0].Dropped != 6 {
		t.Errorf("dropped = %d, want 6", snap[0].Dropped)
	}
}

func TestMetricsOnlyRecorderBuffersNothing(t *testing.T) {
	r := New(-1)
	tr := r.Track("t")
	tr.SpanDur(KindFiring, "f", time.Now(), 0, 1, 0)
	tr.SpanDur(KindFiring, "f", time.Now(), 0, 1, 0)
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Events) != 0 {
		t.Fatalf("metrics-only recorder buffered events: %+v", snap)
	}
	if snap[0].Dropped != 2 {
		t.Errorf("dropped = %d, want 2", snap[0].Dropped)
	}
	// The registry still works.
	r.Metrics.Counter("x").Inc()
	if got := r.Metrics.CounterValue("x"); got != 1 {
		t.Errorf("counter = %d", got)
	}
}

func TestSnapshotSortsByTS(t *testing.T) {
	r := New(0)
	tr := r.Track("t")
	// A span stamped with a start before an already-recorded one: the append
	// order is g-then-f, the TS order is f-then-g.
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.SpanDur(KindFiring, "g", time.Now(), 0, 0, 0)
	tr.SpanDur(KindFiring, "f", start, time.Since(start), 1, 1)
	evs := r.Snapshot()[0].Events
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("snapshot out of TS order: %+v", evs)
		}
	}
	if evs[0].Name != "f" {
		t.Errorf("the earlier span should sort first, got %q", evs[0].Name)
	}
	if evs[0].Dur <= 0 {
		t.Errorf("span dur = %d, want > 0", evs[0].Dur)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}

	var g Gauge
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 7 {
		t.Errorf("gauge = %d max %d, want 3 max 7", g.Value(), g.Max())
	}

	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	h.Observe(-5) // clamps to 0
	if h.Count() != 101 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %d", h.Sum())
	}
	if h.Max() != 100 {
		t.Errorf("max = %d", h.Max())
	}
	if m := h.Mean(); m < 49 || m > 51 {
		t.Errorf("mean = %f", m)
	}
	// Power-of-two buckets: quantiles are exact only to a factor of 2.
	if q := h.Quantile(0.5); q < 25 || q > 100 {
		t.Errorf("p50 = %d", q)
	}
	// Factor-of-2 buckets: the top quantile lands inside max's bucket.
	if q := h.Quantile(1); q < 64 || q > 127 {
		t.Errorf("p100 = %d, want within max's power-of-two bucket", q)
	}
	var empty Histogram
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestRegistrySnapshotAndTable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Add(3)
	reg.Gauge("a.depth").Set(9)
	reg.Histogram("a.lat").Observe(100)
	s := reg.Snapshot()
	if s.Counters["a.count"] != 3 {
		t.Errorf("snapshot counter = %d", s.Counters["a.count"])
	}
	if s.Gauges["a.depth"].Value != 9 || s.Gauges["a.depth"].Max != 9 {
		t.Errorf("snapshot gauge = %+v", s.Gauges["a.depth"])
	}
	if s.Histograms["a.lat"].Count != 1 {
		t.Errorf("snapshot hist = %+v", s.Histograms["a.lat"])
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
	out := reg.Table().String()
	for _, want := range []string{"a.count", "a.depth", "a.lat", "counter", "gauge", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if reg.CounterValue("never.created") != 0 {
		t.Error("missing counter must read 0")
	}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"perfetto", "dot", "jsonl", "schedule"} {
		if f, err := ParseFormat(ok); err != nil || string(f) != ok {
			t.Errorf("ParseFormat(%q) = %q, %v", ok, f, err)
		}
	}
	if _, err := ParseFormat("svg"); err == nil {
		t.Error("unknown format must error")
	}
}

// TestMountPprof pins the opt-in introspection surface: a bare metrics mux
// serves 404 under /debug/pprof/, a mounted one serves the index and the
// goroutine profile.
func TestMountPprof(t *testing.T) {
	reg := NewRegistry()
	bare := httptest.NewServer(MetricsMux(reg))
	defer bare.Close()
	// The bare mux's catch-all answers any path with the metrics snapshot, so
	// the gate check is on the payload: no profile may come back unmounted.
	res, err := http.Get(bare.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if bytes.Contains(body, []byte("goroutine profile")) {
		t.Error("unmounted mux serves pprof — the flag gate is broken")
	}

	mux := MetricsMux(reg)
	MountPprof(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes", path, res.StatusCode, len(body))
		}
	}
	// The metrics surface still serves beside it.
	if res, err := http.Get(ts.URL + "/metrics"); err != nil || res.StatusCode != http.StatusOK {
		t.Errorf("metrics beside pprof: %v, %v", res, err)
	} else {
		res.Body.Close()
	}
}

// populate records a representative mix of events on two tracks.
func populate(r *Recorder) {
	w0 := r.Track("gamma/w0")
	start := time.Now()
	w0.SpanDur(KindFiring, "R1", start, time.Since(start), 5, 1)
	w0.SpanDur(KindFiring, "R2", time.Now(), 0, 4, 0)
	w0.SpanDur(KindFiring, "R1", time.Now(), 0, 3, 0)
	w1 := r.Track("gamma/w1")
	w1.SpanDur(KindFiring, "R1", start, time.Since(start), 3, 2)
	w1.SpanDur(KindFiring, "R1", time.Now(), 0, 4, 0)
	w1.SpanDur(KindFiring, "R2", time.Now(), 0, 2, 0)
	w1.SpanDur(KindFiring, "R2", time.Now(), 0, 7, 0)
}

// TestPerfettoSchema pins the trace-event contract Perfetto relies on: valid
// JSON, a traceEvents array, pid/tid/ph on every event, dur on "X" spans, a
// thread_name metadata record per track, and nondecreasing ts per tid.
func TestPerfettoSchema(t *testing.T) {
	r := New(0)
	populate(r)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, r); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	threadNames := map[float64]string{}
	lastTS := map[float64]float64{}
	for i, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d: missing ph: %v", i, e)
		}
		pid, ok := e["pid"].(float64)
		if !ok || pid != 1 {
			t.Fatalf("event %d: pid = %v, want 1", i, e["pid"])
		}
		tid, ok := e["tid"].(float64)
		if !ok {
			t.Fatalf("event %d: missing tid: %v", i, e)
		}
		switch ph {
		case "M":
			args := e["args"].(map[string]any)
			threadNames[tid], _ = args["name"].(string)
			continue
		case "X":
			if _, ok := e["dur"].(float64); !ok {
				t.Errorf("event %d: span without dur: %v", i, e)
			}
		case "i", "C":
		default:
			t.Errorf("event %d: unexpected ph %q", i, ph)
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event %d: missing ts: %v", i, e)
		}
		if prev, seen := lastTS[tid]; seen && ts < prev {
			t.Errorf("event %d: tid %v ts %v < previous %v", i, tid, ts, prev)
		}
		lastTS[tid] = ts
	}
	names := map[string]bool{}
	for _, n := range threadNames {
		names[n] = true
	}
	if !names["gamma/w0"] || !names["gamma/w1"] {
		t.Errorf("thread names = %v, want gamma/w0 and gamma/w1", threadNames)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New(2) // force a drop so the summary line appears
	populate(r)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines, dropped := 0, 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var le struct {
			Track string `json:"track"`
			Kind  string `json:"kind"`
			TSNS  int64  `json:"ts_ns"`
			Arg   int64  `json:"arg"`
		}
		if err := json.Unmarshal(sc.Bytes(), &le); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", lines, err, sc.Text())
		}
		if le.Track == "" || le.Kind == "" {
			t.Fatalf("line %d missing track/kind: %s", lines, sc.Text())
		}
		if le.Kind == "dropped" {
			dropped++
			if le.Arg <= 0 {
				t.Errorf("dropped summary without count: %s", sc.Text())
			}
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no lines exported")
	}
	if dropped != 2 {
		t.Errorf("dropped summaries = %d, want 2 (both tracks overflowed)", dropped)
	}
}

func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gamma.steps").Add(42)
	addr, closeSrv, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("endpoint payload not a Snapshot: %v\n%s", err, body)
	}
	if s.Counters["gamma.steps"] != 42 {
		t.Errorf("served counter = %d, want 42", s.Counters["gamma.steps"])
	}
}

func TestProvenanceThreading(t *testing.T) {
	p := NewProvenance()
	// x and y consumed from the inputs, z produced then consumed, out left.
	p.RecordFiring("R1", []string{"x", "y"}, []string{"z"})
	p.RecordFiring("R2", []string{"z"}, []string{"out"})
	if p.Firings() != 2 {
		t.Fatalf("firings = %d", p.Firings())
	}
	var buf bytes.Buffer
	if err := p.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`i0 [shape=box`, `label="x"`, `label="y"`,
		`f0 [shape=ellipse, label="R1"]`, `f1 [shape=ellipse, label="R2"]`,
		`o0 [shape=box`, `label="out"`,
		"i0 -> f0;", "i1 -> f0;", "f0 -> f1;", "f1 -> o0;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestProvenanceDuplicateKeysStack(t *testing.T) {
	p := NewProvenance()
	// Two producers of the same key: consumption unwinds most recent first,
	// mirroring token-queue semantics.
	p.RecordFiring("A", nil, []string{"k"})
	p.RecordFiring("B", nil, []string{"k"})
	p.RecordFiring("C", []string{"k"}, nil)
	var buf bytes.Buffer
	if err := p.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "f1 -> f2;") {
		t.Errorf("consumer must attach to the most recent producer:\n%s", out)
	}
	if strings.Contains(out, "f0 -> f2;") {
		t.Errorf("older producer must stay live:\n%s", out)
	}
}

func TestProvenanceLabeler(t *testing.T) {
	p := NewProvenance()
	p.Labeler = func(key string) string { return "<" + key + ">" }
	p.RecordFiring("R", []string{"a"}, []string{"b"})
	var buf bytes.Buffer
	if err := p.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `label="<a>"`) || !strings.Contains(out, `label="<b>"`) {
		t.Errorf("labeler not applied:\n%s", out)
	}
}
