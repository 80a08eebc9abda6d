package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/schema"
	"repro/internal/value"
)

func postReplay(t *testing.T, ts *httptest.Server, req *schema.ReplayRequest) (*http.Response, *schema.ReplayResponse) {
	t.Helper()
	body, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	hres, err := ts.Client().Post(ts.URL+"/v1/replay", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var resp schema.ReplayResponse
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding replay response (status %d): %v", hres.StatusCode, err)
	}
	return hres, &resp
}

// TestReplayEndpointRecordReplayDifferential is the wire-level acceptance
// loop: a parallel traced Gamma run is fetched back as ?format=schedule and
// POSTed to /v1/replay against the same program and initial multiset. The
// sequential re-execution must confirm the parallel answer exactly — same
// final multiset, same firing count, stable — and the occupancy gauges must
// read zero once the service quiesces. Runs under -race via make stress.
func TestReplayEndpointRecordReplayDifferential(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 4})
	program := paper.Example2GammaListing
	init := paper.Example2InitialMultiset(9, 4, 7)
	req := schema.NewGammaRequest(program, init, schema.RunSpec{
		Engine: schema.EngineParallel, Workers: 4, Seed: 3, MaxSteps: 100000, Trace: true})
	hres, resp := postRun(t, ts, req, "?wait=true", "alice")
	if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
		t.Fatalf("parallel run: status %d, state %s (%+v)", hres.StatusCode, resp.State, resp.Error)
	}

	tres, sched := getTrace(t, ts, resp.ID, "schedule")
	if tres.StatusCode != http.StatusOK {
		t.Fatalf("schedule fetch status = %d", tres.StatusCode)
	}
	if ct := tres.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Errorf("schedule Content-Type = %q", ct)
	}
	if _, err := replay.Parse(bytes.NewReader(sched)); err != nil {
		t.Fatalf("served schedule does not parse: %v\n%.300s", err, sched)
	}

	rreq := schema.NewGammaReplayRequest(program, init, string(sched))
	rres, rep := postReplay(t, ts, &rreq)
	if rres.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %d (%+v)", rres.StatusCode, rep.Error)
	}
	if rep.Divergence != nil {
		t.Fatalf("faithful replay diverged: %+v", rep.Divergence)
	}
	if !rep.Stable {
		t.Errorf("faithful replay did not reach a stable state")
	}
	if rep.Multiset != resp.Result.Multiset {
		t.Errorf("replayed multiset %q != recorded %q", rep.Multiset, resp.Result.Multiset)
	}
	if int64(rep.Steps) != resp.Result.Steps {
		t.Errorf("replayed %d steps, recorded run fired %d", rep.Steps, resp.Result.Steps)
	}

	// Corrupt the last producing step's first product: the replay must
	// diverge exactly there with a product-mismatch naming both keys.
	parsed, err := replay.Parse(bytes.NewReader(sched))
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for i := len(parsed.Steps) - 1; i >= 0; i-- {
		if len(parsed.Steps[i].Produced) > 0 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no producing step in the schedule")
	}
	parsed.Steps[target].Produced[0] = multiset.Tuple{value.Int(999), value.Str("XX")}.Key()
	breq := schema.NewGammaReplayRequest(program, init, string(parsed.Bytes()))
	bres, brep := postReplay(t, ts, &breq)
	if bres.StatusCode != http.StatusOK {
		t.Fatalf("diverging replay status = %d (%+v)", bres.StatusCode, brep.Error)
	}
	if brep.Divergence == nil {
		t.Fatal("corrupted schedule replayed clean")
	}
	if brep.Divergence.Step != parsed.Steps[target].Step {
		t.Errorf("divergence at step %d, want %d", brep.Divergence.Step, parsed.Steps[target].Step)
	}
	if brep.Divergence.Reason != replay.ReasonProductMismatch {
		t.Errorf("divergence reason %q, want %q", brep.Divergence.Reason, replay.ReasonProductMismatch)
	}

	if got := s.Registry().CounterValue("service.replays"); got != 2 {
		t.Errorf("service.replays = %d, want 2", got)
	}
	if got := s.Registry().CounterValue("service.replays.diverged"); got != 1 {
		t.Errorf("service.replays.diverged = %d, want 1", got)
	}
	for _, g := range []string{"service.queue_depth", "service.executors_busy"} {
		if v := s.Registry().Gauge(g).Value(); v != 0 {
			t.Errorf("%s = %d at quiescence, want 0", g, v)
		}
	}
	for _, dim := range []string{"tenant", "engine"} {
		if err := s.Registry().CheckRollup(dim); err != nil {
			t.Errorf("label rollup broken: %v", err)
		}
	}
}

// TestReplayEndpointDataflow drives the dataflow kind through the same loop:
// record a traced graph run, fetch its schedule, replay it, and require the
// terminal-edge output series to match the recorded run's.
func TestReplayEndpointDataflow(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	graph := "graph g\nconst x = 3\nconst y = 4\narith add +\nedge a x:0 -> add:0\nedge b y:0 -> add:1\nedge m add:0 -> out\n"
	req := schema.NewGraphRequest(graph, schema.RunSpec{MaxSteps: 100, Trace: true})
	hres, resp := postRun(t, ts, req, "?wait=true", "")
	if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
		t.Fatalf("dataflow run: status %d, state %s (%+v)", hres.StatusCode, resp.State, resp.Error)
	}

	tres, sched := getTrace(t, ts, resp.ID, "schedule")
	if tres.StatusCode != http.StatusOK {
		t.Fatalf("schedule fetch status = %d", tres.StatusCode)
	}
	rreq := schema.NewGraphReplayRequest(graph, string(sched))
	rres, rep := postReplay(t, ts, &rreq)
	if rres.StatusCode != http.StatusOK || rep.Divergence != nil {
		t.Fatalf("dataflow replay: status %d, divergence %+v, err %+v", rres.StatusCode, rep.Divergence, rep.Error)
	}
	if !rep.Stable {
		t.Errorf("dataflow replay not stable (pending %d)", rep.Pending)
	}
	if len(rep.Outputs) != len(resp.Result.Outputs) {
		t.Fatalf("replay outputs %v, recorded %v", rep.Outputs, resp.Result.Outputs)
	}
	for label, want := range resp.Result.Outputs {
		got := rep.Outputs[label]
		if len(got) != len(want) {
			t.Fatalf("output %q: replay %v, recorded %v", label, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("output %q[%d]: replay %q, recorded %q", label, i, got[i], want[i])
			}
		}
	}
}

// TestReplayEndpointErrors pins the rejection surface of POST /v1/replay:
// non-JSON bodies, structurally invalid requests, unparseable schedules, and
// a schedule whose kind contradicts the request's are all 400s with wire
// error envelopes — never 500s, never silent partial replays.
func TestReplayEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})

	post := func(body string) int {
		t.Helper()
		hres, err := ts.Client().Post(ts.URL+"/v1/replay", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hres.Body.Close()
		return hres.StatusCode
	}

	if got := post("{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", got)
	}
	if got := post(`{"version":"1.3","kind":"gamma","program":"","schedule":"x"}`); got != http.StatusBadRequest {
		t.Errorf("empty program status = %d, want 400", got)
	}

	dfSched := &replay.Schedule{Kind: replay.KindDataflow, Name: "g", Steps: []replay.Step{{Step: 1, Seq: 1, Name: "add"}}}
	kindMismatch := schema.NewGammaReplayRequest(counterProgram, counterInit, string(dfSched.Bytes()))
	body, err := kindMismatch.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := post(string(body)); got != http.StatusBadRequest {
		t.Errorf("kind-mismatch schedule status = %d, want 400", got)
	}

	garbled := schema.NewGammaReplayRequest(counterProgram, counterInit, "not a schedule\n")
	body, err = garbled.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := post(string(body)); got != http.StatusBadRequest {
		t.Errorf("unparseable schedule status = %d, want 400", got)
	}
}
