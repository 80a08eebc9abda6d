package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/paper"
	"repro/internal/schema"
)

func getStats(t *testing.T, ts *httptest.Server, id string) (*http.Response, *schema.RunStats) {
	t.Helper()
	hres, err := ts.Client().Get(ts.URL + "/v1/runs/" + id + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hres.StatusCode != http.StatusOK {
		return hres, nil
	}
	st, err := schema.DecodeRunStats(body)
	if err != nil {
		t.Fatalf("decoding stats: %v\n%s", err, body)
	}
	return hres, st
}

func getTrace(t *testing.T, ts *httptest.Server, id, format string) (*http.Response, []byte) {
	t.Helper()
	url := ts.URL + "/v1/runs/" + id + "/trace"
	if format != "" {
		url += "?format=" + format
	}
	hres, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hres, body
}

// TestTraceLifecycle drives one traced sequential Gamma run end to end: the
// stats payload must report the provenance firing count equal to the wire
// Steps (the paper's firing-history equivalence over HTTP), and all three
// trace formats must serve with their Content-Types.
func TestTraceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000, Trace: true})
	hres, resp := postRun(t, ts, req, "?wait=true", "alice")
	if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
		t.Fatalf("traced run: status %d, state %s", hres.StatusCode, resp.State)
	}

	sres, st := getStats(t, ts, resp.ID)
	if sres.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", sres.StatusCode)
	}
	if !st.Traced || st.Tenant != "alice" || st.Engine != schema.EngineSeq {
		t.Fatalf("stats coordinates wrong: %+v", st)
	}
	if st.Steps != resp.Result.Steps {
		t.Errorf("stats steps %d != response steps %d", st.Steps, resp.Result.Steps)
	}
	if st.Firings != st.Steps {
		t.Errorf("provenance firings %d != wire steps %d: the trace lost or invented firings", st.Firings, st.Steps)
	}
	if st.Counters["gamma.steps"] != st.Steps {
		t.Errorf("traced registry gamma.steps = %d, want %d", st.Counters["gamma.steps"], st.Steps)
	}
	if st.TraceEvents != st.Firings || st.TraceDropped != 0 {
		t.Errorf("trace: events %d dropped %d, want one per firing (%d) and 0", st.TraceEvents, st.TraceDropped, st.Firings)
	}

	for format, wantCT := range map[string]string{
		"":         "application/json",
		"perfetto": "application/json",
		"jsonl":    "application/jsonl",
		"dot":      "text/vnd.graphviz",
	} {
		tres, body := getTrace(t, ts, resp.ID, format)
		if tres.StatusCode != http.StatusOK {
			t.Fatalf("trace %q status = %d", format, tres.StatusCode)
		}
		if ct := tres.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantCT) {
			t.Errorf("trace %q Content-Type = %q, want %s", format, ct, wantCT)
		}
		if len(body) == 0 {
			t.Errorf("trace %q is empty", format)
		}
		switch format {
		case "", "perfetto":
			var tr struct {
				TraceEvents []struct {
					Ph string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(body, &tr); err != nil {
				t.Errorf("perfetto trace broken (%v):\n%.200s", err, body)
			}
			spans := int64(0)
			for _, e := range tr.TraceEvents {
				if e.Ph == "X" {
					spans++
				}
			}
			if spans != st.Firings {
				t.Errorf("perfetto trace holds %d spans, the run fired %d times", spans, st.Firings)
			}
		case "dot":
			if !bytes.Contains(body, []byte("digraph")) {
				t.Errorf("dot trace is not a digraph:\n%.200s", body)
			}
		}
	}

	// An unknown format is a 400, not a silent default.
	if tres, _ := getTrace(t, ts, resp.ID, "pprof"); tres.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown trace format status = %d, want 400", tres.StatusCode)
	}
}

// TestTraceFig1ProvenanceGolden: the DOT trace of a traced Example 1 run is
// the Fig. 1 provenance golden of package telemetry byte for byte — the same
// listing and initial multiset, the firing DAG rendered as gammarun
// -trace-format dot renders it, its Γ keys printed as tuples.
func TestTraceFig1ProvenanceGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000, Trace: true})
	hres, resp := postRun(t, ts, req, "?wait=true", "")
	if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
		t.Fatalf("traced run: status %d, state %s", hres.StatusCode, resp.State)
	}
	want, err := os.ReadFile("../telemetry/testdata/fig1_provenance.dot")
	if err != nil {
		t.Fatal(err)
	}
	if tres, body := getTrace(t, ts, resp.ID, "dot"); tres.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("dot trace (status %d):\n%q\nwant the Fig. 1 golden:\n%s", tres.StatusCode, body, want)
	}
}

// TestTracedDataflowRun checks the trace surface covers the dataflow kind
// too: firings == steps on its trace.
func TestTracedDataflowRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	graph := "graph g\nconst x = 3\nconst y = 4\narith add +\nedge a x:0 -> add:0\nedge b y:0 -> add:1\nedge m add:0 -> out\n"
	req := schema.NewGraphRequest(graph, schema.RunSpec{MaxSteps: 100, Trace: true})
	hres, resp := postRun(t, ts, req, "?wait=true", "")
	if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
		t.Fatalf("dataflow run: status %d, state %s (%+v)", hres.StatusCode, resp.State, resp.Error)
	}
	_, st := getStats(t, ts, resp.ID)
	if st == nil || !st.Traced {
		t.Fatalf("dataflow stats missing or untraced: %+v", st)
	}
	if st.Firings != st.Steps || st.Steps == 0 {
		t.Errorf("dataflow firings %d != steps %d (or zero)", st.Firings, st.Steps)
	}
	// The matching work is on the wire too: x parks at add until y arrives,
	// and both consts' tokens are queued at once.
	if st.Counters["dataflow.match_entries_peak"] != 1 || st.Counters["dataflow.queue_peak"] != 2 {
		t.Errorf("run-end gauges missing from stats: %v", st.Counters)
	}
}

// TestDataflowParallelSpecRunsSeq: the wire still accepts engine parallel
// with workers, and engine matrix, on a dataflow spec, and the dataflow
// runtime runs each on its one FIFO schedule — which is what /stats and the
// registry's engine label report.
func TestDataflowParallelSpecRunsSeq(t *testing.T) {
	graph := "graph g\nconst x = 3\nconst y = 4\narith add +\nedge a x:0 -> add:0\nedge b y:0 -> add:1\nedge m add:0 -> out\n"
	for _, spec := range []schema.RunSpec{
		{Engine: schema.EngineParallel, Workers: 4, MaxSteps: 100, Trace: true},
		{Engine: schema.EngineMatrix, MaxSteps: 100, Trace: true},
	} {
		s, ts := newTestServer(t, Config{Pool: 1})
		hres, resp := postRun(t, ts, schema.NewGraphRequest(graph, spec), "?wait=true", "")
		if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
			t.Fatalf("%s: dataflow run: status %d, state %s (%+v)", spec.Engine, hres.StatusCode, resp.State, resp.Error)
		}
		if _, st := getStats(t, ts, resp.ID); st == nil || st.Engine != schema.EngineSeq {
			t.Fatalf("%s: stats engine of a dataflow spec: %+v, want %q", spec.Engine, st, schema.EngineSeq)
		}
		reg := s.Registry()
		if got := reg.Labeled("engine", schema.EngineSeq).CounterValue("service.done"); got != 1 {
			t.Errorf("%s: service.done under engine seq = %d, want 1", spec.Engine, got)
		}
		if got := reg.Labeled("engine", spec.Engine).CounterValue("service.done"); got != 0 {
			t.Errorf("%s: service.done under engine %s = %d, want 0", spec.Engine, spec.Engine, got)
		}
	}
}

// TestTraceErrorSurface pins the failure modes: 404 for unknown runs and for
// runs submitted without the trace knob; 409 while the run still executes.
func TestTraceErrorSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})

	if tres, _ := getTrace(t, ts, "r-999", ""); tres.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run trace status = %d, want 404", tres.StatusCode)
	}
	if sres, _ := getStats(t, ts, "r-999"); sres.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run stats status = %d, want 404", sres.StatusCode)
	}

	// An untraced run has stats (traced=false) but no trace.
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{MaxSteps: 10000})
	_, resp := postRun(t, ts, req, "?wait=true", "")
	if tres, _ := getTrace(t, ts, resp.ID, ""); tres.StatusCode != http.StatusNotFound {
		t.Errorf("untraced run trace status = %d, want 404", tres.StatusCode)
	}
	if _, st := getStats(t, ts, resp.ID); st == nil || st.Traced {
		t.Errorf("untraced run stats: %+v, want traced=false", st)
	}

	// A still-running run answers 409 on both trace surfaces.
	divergent := schema.NewGammaRequest(counterProgram, counterInit,
		schema.RunSpec{MaxSteps: 100_000_000, Trace: true})
	_, dresp := postRun(t, ts, divergent, "", "")
	waitState(t, ts, dresp.ID, schema.StateRunning)
	if tres, _ := getTrace(t, ts, dresp.ID, ""); tres.StatusCode != http.StatusConflict {
		t.Errorf("running run trace status = %d, want 409", tres.StatusCode)
	}
	if sres, _ := getStats(t, ts, dresp.ID); sres.StatusCode != http.StatusConflict {
		t.Errorf("running run stats status = %d, want 409", sres.StatusCode)
	}
	hreq := mustReq(t, "DELETE", ts.URL+"/v1/runs/"+dresp.ID)
	if _, err := ts.Client().Do(hreq); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ts, dresp.ID)
}

// TestTraceSamplingDeterministic pins the sampler arithmetic: at rate 0.5,
// exactly every second trace-requesting run is traced, with no randomness.
func TestTraceSamplingDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, TraceSample: 0.5})
	traced := 0
	pattern := make([]bool, 0, 6)
	for i := 0; i < 6; i++ {
		req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
			schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000, Trace: true})
		_, resp := postRun(t, ts, req, "?wait=true", "")
		_, st := getStats(t, ts, resp.ID)
		if st == nil {
			t.Fatalf("no stats for run %s", resp.ID)
		}
		pattern = append(pattern, st.Traced)
		if st.Traced {
			traced++
			if st.Firings != st.Steps {
				t.Errorf("run %s: firings %d != steps %d", resp.ID, st.Firings, st.Steps)
			}
		}
	}
	if traced != 3 {
		t.Errorf("sampler traced %d of 6 at rate 0.5 (pattern %v), want exactly 3", traced, pattern)
	}

	// Negative rate disables tracing outright.
	_, ts2 := newTestServer(t, Config{Pool: 1, TraceSample: -1})
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{MaxSteps: 10000, Trace: true})
	_, resp := postRun(t, ts2, req, "?wait=true", "")
	if _, st := getStats(t, ts2, resp.ID); st == nil || st.Traced {
		t.Errorf("TraceSample<0 still traced: %+v", st)
	}
}

// TestTraceAllocationCost states what tracing costs a request in bytes, the
// form of the recorder's cost that repeats from run to run (to within ~30 B):
// Example 1 (3 firings) submitted in process, one executor, so every
// allocation between Submit and Done belongs to the request. Asking for a trace on a server whose sampler is
// off must cost what not asking costs (the knob is one branch at admission),
// and a granted trace — schedule recorder, run-end fold, retention — must
// keep the whole request under 64 KiB (untraced ≈ 6.6 kB, traced ≈ 12.0 kB);
// a fixed first chunk in any recorder store shows here at once.
func TestTraceAllocationCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bytes are not repeatable under the race detector")
	}
	perRequest := func(cfg Config, trace bool) float64 {
		cfg.Pool = 1
		s := New(cfg)
		defer s.Close()
		req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
			schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000, Trace: trace})
		run := func() {
			r, err := s.Submit(&req, "")
			if err != nil {
				t.Fatal(err)
			}
			<-r.Done()
			if r.Traced != (trace && cfg.TraceSample >= 0) || r.Err() != nil {
				t.Fatalf("run %s: traced=%v err=%v", r.ID, r.Traced, r.Err())
			}
		}
		const warm, n = 16, 128
		for i := 0; i < warm; i++ {
			run()
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&b)
		return float64(b.TotalAlloc-a.TotalAlloc) / n
	}
	untraced := perRequest(Config{}, false)
	off := perRequest(Config{TraceSample: -1}, true)
	on := perRequest(Config{}, true)
	t.Logf("bytes per request: untraced %.0f, trace asked / sampler off %.0f, traced %.0f", untraced, off, on)
	if d := off - untraced; d > 256 || d < -256 {
		t.Errorf("asking for a trace with the sampler off costs %.0f B per request against %.0f B untraced, want within 256 B", off, untraced)
	}
	if on > 64<<10 {
		t.Errorf("a traced request allocates %.0f B, want <= 64 KiB", on)
	}
}

// TestTracedRunsDifferential is the PR's acceptance differential: N parallel
// runs across tenants, tracing sampled on and off, every traced run's
// provenance firing count equal to its wire Steps, and the registry's tenant
// and engine label dimensions rolling up to the global series exactly. Runs
// under -race via make stress.
func TestTracedRunsDifferential(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 4})
	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
				schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000, Trace: i%2 == 0})
			_, resp := postRun(t, ts, req, "?wait=true", fmt.Sprintf("tenant-%d", i%3))
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()

	for i, id := range ids {
		sres, st := getStats(t, ts, id)
		if st == nil {
			t.Fatalf("run %s: stats status %d", id, sres.StatusCode)
		}
		if wantTraced := i%2 == 0; st.Traced != wantTraced {
			t.Errorf("run %s traced = %v, want %v", id, st.Traced, wantTraced)
		}
		if st.Traced {
			if st.Firings != st.Steps || st.Steps == 0 {
				t.Errorf("run %s: firings %d != steps %d", id, st.Firings, st.Steps)
			}
			if tres, body := getTrace(t, ts, id, "jsonl"); tres.StatusCode != http.StatusOK || len(body) == 0 {
				t.Errorf("run %s: trace fetch status %d, %d bytes", id, tres.StatusCode, len(body))
			}
		} else if tres, _ := getTrace(t, ts, id, ""); tres.StatusCode != http.StatusNotFound {
			t.Errorf("run %s: untraced trace status %d, want 404", id, tres.StatusCode)
		}
	}

	for _, dim := range []string{"tenant", "engine"} {
		if err := s.Registry().CheckRollup(dim); err != nil {
			t.Errorf("label rollup broken: %v", err)
		}
	}
	if got := s.Registry().CounterValue("service.done"); got != n {
		t.Errorf("service.done = %d, want %d", got, n)
	}
}

// TestServiceMetricsEndpoints checks the service handler itself serves the
// metrics surfaces: /metrics in both formats, with the tenant and engine
// label series present, and 406 on an unknown format.
func TestServiceMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000})
	postRun(t, ts, req, "?wait=true", "alice")

	hres, err := ts.Client().Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hres.Body)
	hres.Body.Close()
	if ct := hres.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE service_done counter",
		`service_done{tenant="alice"} 1`,
		`service_done{engine="seq"} 1`,
		"service_run_wall_ns_bucket",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prom exposition missing %q:\n%s", want, body)
		}
	}

	hres, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	err = json.NewDecoder(hres.Body).Decode(&snap)
	hres.Body.Close()
	if err != nil || snap.Counters["service.done"] != 1 {
		t.Errorf("json metrics broken: %v, %+v", err, snap)
	}

	if hres, err = ts.Client().Get(ts.URL + "/metrics?format=avro"); err != nil {
		t.Fatal(err)
	} else if hres.Body.Close(); hres.StatusCode != http.StatusNotAcceptable {
		t.Errorf("unknown metrics format status = %d, want 406", hres.StatusCode)
	}
}

// syncBuffer is a goroutine-safe log sink: slog records arrive from executor
// goroutines as well as the request path.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestStructuredLogCorrelation checks the slog records carry the run id,
// tenant and engine on admission, completion and 429 rejection — the
// correlation keys that join logs to traces and labeled metrics.
func TestStructuredLogCorrelation(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Pool: 1, Quota: Quota{MaxConcurrent: 1}, Logger: logger})

	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000, Trace: true})
	_, resp := postRun(t, ts, req, "?wait=true", "alice")

	// Saturate the tenant to force a quota rejection record.
	divergent := schema.NewGammaRequest(counterProgram, counterInit,
		schema.RunSpec{MaxSteps: 100_000_000})
	_, d := postRun(t, ts, divergent, "", "bob")
	waitState(t, ts, d.ID, schema.StateRunning)
	if hres, _ := postRun(t, ts, divergent, "", "bob"); hres.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second bob run status = %d, want 429", hres.StatusCode)
	}
	ts.Client().Do(mustReq(t, "DELETE", ts.URL+"/v1/runs/"+d.ID)) //nolint:errcheck
	waitTerminal(t, ts, d.ID)

	type record struct {
		Msg    string `json:"msg"`
		Level  string `json:"level"`
		Run    string `json:"run"`
		Tenant string `json:"tenant"`
		Engine string `json:"engine"`
		Reason string `json:"reason"`
		Traced bool   `json:"traced"`
	}
	var admitted, finished, rejected *record
	for _, line := range buf.lines() {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("non-JSON log line: %q", line)
		}
		switch {
		case r.Msg == "run admitted" && r.Run == resp.ID:
			admitted = &r
		case r.Msg == "run finished" && r.Run == resp.ID:
			finished = &r
		case r.Msg == "run rejected" && r.Tenant == "bob":
			rejected = &r
		}
	}
	if admitted == nil || !admitted.Traced || admitted.Tenant != "alice" || admitted.Engine != schema.EngineSeq {
		t.Errorf("admission record missing or uncorrelated: %+v", admitted)
	}
	if finished == nil || finished.Tenant != "alice" {
		t.Errorf("completion record missing or uncorrelated: %+v", finished)
	}
	if rejected == nil || rejected.Level != "WARN" || rejected.Reason != "concurrency quota" {
		t.Errorf("rejection record missing or wrong: %+v", rejected)
	}
}

// TestDefaultLoggerDisabled: without a Config.Logger the service discards its
// records before building them — no level is enabled, so neither the handler
// nor the attribute lists run.
func TestDefaultLoggerDisabled(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if s.log.Enabled(context.Background(), slog.LevelError) {
		t.Error("the default logger is enabled at Error, so every record is rendered and thrown away")
	}
}
