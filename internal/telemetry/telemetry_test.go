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
)

// TestSnapshotSortsByTS holds the timeline to start order within a lane: a
// parallel run's schedule is in commit order, which need not be the order
// its firings started in, and a lane must still read left to right.
func TestSnapshotSortsByTS(t *testing.T) {
	tl := NewTimeline("gamma/w")
	// Recorded g-then-f (commit order); f started first and is still running
	// when g starts, so the two take two lanes, each in start order.
	tl.RecordSpan(1, "g", 500, 100)
	tl.RecordSpan(2, "f", 0, 1000)
	tl.RecordSpan(3, "h", 700, 50)
	lanes := tl.lanes()
	if len(lanes) != 2 {
		t.Fatalf("lanes = %v, want 2", lanes)
	}
	for _, lane := range lanes {
		for i := 1; i < len(lane); i++ {
			if lane[i].start < lane[i-1].start {
				t.Fatalf("lane out of start order: %+v", lane)
			}
		}
	}
	if lanes[0][0].name != "f" || lanes[1][0].name != "g" || lanes[1][1].name != "h" {
		t.Errorf("the earlier span should take the first lane: %+v", lanes)
	}
}

// TestTimelineLanesNeverOverlap packs spans that touch end to start into
// one lane and opens a lane only for a span that starts before every open
// lane's last one ends.
func TestTimelineLanesNeverOverlap(t *testing.T) {
	tl := NewTimeline("dataflow/pe")
	for i := int64(0); i < 5; i++ {
		tl.RecordSpan(int(i+1), "v", 10*i, 10) // back to back: one lane
	}
	if lanes := tl.lanes(); len(lanes) != 1 || len(lanes[0]) != 5 {
		t.Fatalf("sequential spans took %d lanes, want 1", len(lanes))
	}
	tl = NewTimeline("gamma/w")
	for i := int64(0); i < 40; i++ {
		tl.RecordSpan(int(i+1), "R", (i%4)*3+(i/4)*20, 15) // up to three at once
	}
	lanes := tl.lanes()
	spans := 0
	for _, lane := range lanes {
		for i := 1; i < len(lane); i++ {
			if lane[i].start < lane[i-1].start+lane[i-1].dur {
				t.Fatalf("overlapping spans in one lane: %+v, %+v", lane[i-1], lane[i])
			}
		}
		spans += len(lane)
	}
	if spans != 40 || len(lanes) > 4 {
		t.Errorf("%d spans in %d lanes, want 40 in at most 4", spans, len(lanes))
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

// TestHistogramQuantileNeverExceedsMax: a quantile interpolates inside its
// power-of-two bucket, but never past the largest observation — 100
// observations of 2048 read 2048 at every quantile, not up to 4095.
func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	var same Histogram
	for i := 0; i < 100; i++ {
		same.Observe(2048)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := same.Quantile(q); got != 2048 {
			t.Errorf("100 x 2048: q%.2f = %d, want 2048", q, got)
		}
	}
	var spread Histogram
	for v := int64(1); v <= 3000; v += 7 {
		spread.Observe(v)
	}
	for q := 0.0; q <= 1; q += 0.01 {
		if got := spread.Quantile(q); got > spread.Max() {
			t.Fatalf("q%.2f = %d above max %d", q, got, spread.Max())
		}
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

// populate records a representative mix of spans: two workers' firings,
// overlapping in time, so the timeline has two lanes.
func populate() *Timeline {
	tl := NewTimeline("gamma/w")
	for i, s := range []struct {
		name       string
		start, dur int64
	}{{"R1", 0, 400}, {"R1", 100, 200}, {"R2", 350, 100}, {"R1", 420, 10}, {"R2", 460, 40}, {"R2", 470, 20}, {"R1", 600, 5}} {
		tl.RecordSpan(i+1, s.name, s.start, s.dur)
	}
	return tl
}

// TestPerfettoSchema pins the trace-event contract Perfetto relies on: valid
// JSON, a traceEvents array, pid/tid/ph on every event, dur on "X" spans, a
// thread_name metadata record per lane, nondecreasing ts per tid, and one
// span per recorded firing.
func TestPerfettoSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := populate().WritePerfetto(&buf); err != nil {
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
	spans := 0
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
			spans++
			if _, ok := e["dur"].(float64); !ok {
				t.Errorf("event %d: span without dur: %v", i, e)
			}
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
	if spans != 7 {
		t.Errorf("spans = %d, want one per recorded firing (7)", spans)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := populate().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	steps := map[int]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var le struct {
			Track string `json:"track"`
			Kind  string `json:"kind"`
			Name  string `json:"name"`
			Step  int    `json:"step"`
		}
		if err := json.Unmarshal(sc.Bytes(), &le); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", len(steps), err, sc.Text())
		}
		if le.Track == "" || le.Kind != "firing" || le.Name == "" {
			t.Fatalf("line %d missing track/kind/name: %s", len(steps), sc.Text())
		}
		steps[le.Step] = true
	}
	if len(steps) != 7 {
		t.Errorf("exported steps %v, want each of the 7 recorded firings once", steps)
	}
}

func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gamma.steps").Add(42)
	addr, closeSrv, err := ServeMux("127.0.0.1:0", MetricsMux(reg))
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

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value", "time")
	tbl.Row("alpha", 42, "1.50ms")
	tbl.Row("a-much-longer-name", 3.14159, "2.00s")
	s := tbl.String()
	for _, want := range []string{"== demo ==", "name", "-----", "alpha", "1.50ms", "2.00s", "3.14", "a-much-longer-name"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "3.14159") {
		t.Errorf("float cell not rounded to two decimals:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("line count = %d:\n%s", len(lines), s)
	}
	// Columns align: header and rows have the same prefix width for col 2.
	hdr := lines[1]
	row := lines[3]
	if strings.Index(hdr, "value") != strings.Index(row, "42") {
		t.Errorf("columns misaligned:\n%s", s)
	}
	// Untitled table has no title line.
	if s2 := NewTable("", "a").String(); strings.Contains(s2, "==") {
		t.Errorf("untitled table rendered a title:\n%s", s2)
	}
}
