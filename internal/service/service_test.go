package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/rt"
	"repro/internal/schema"
)

// counterProgram never stabilizes: the ideal tenant for cancellation and
// quota tests, because only an external bound can stop it.
const counterProgram = `R = replace [x, 'G'] by [x + 1, 'G']`
const counterInit = `{[0, 'G']}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, req schema.RunRequest, query, apiKey string) (*http.Response, *schema.RunResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", ts.URL+"/v1/runs"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+apiKey)
	}
	hres, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var resp schema.RunResponse
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response (status %d): %v", hres.StatusCode, err)
	}
	return hres, &resp
}

func getRun(t *testing.T, ts *httptest.Server, id string) (*http.Response, *schema.RunResponse) {
	t.Helper()
	hres, err := ts.Client().Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var resp schema.RunResponse
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return hres, &resp
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) *schema.RunResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, resp := getRun(t, ts, id)
		if schema.TerminalState(resp.State) {
			return resp
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s did not reach a terminal state", id)
	return nil
}

// TestLifecycle drives the full submit → poll → done arc over HTTP for the
// paper's Example 1 and checks the stable state matches the in-process run.
func TestLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{MaxSteps: 10000})

	hres, resp := postRun(t, ts, req, "", "")
	if hres.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", hres.StatusCode)
	}
	if resp.ID == "" || resp.Version != schema.WireVersion {
		t.Fatalf("bad submit envelope: %+v", resp)
	}

	final := waitTerminal(t, ts, resp.ID)
	if final.State != schema.StateDone || final.Error != nil {
		t.Fatalf("final state = %s (err %+v), want done", final.State, final.Error)
	}
	want := oracleExample1(t, paper.Example1InitialMultiset)
	if final.Result == nil || final.Result.Multiset != want {
		t.Fatalf("stable state = %+v, want %q", final.Result, want)
	}
	if final.Result.Steps != 3 {
		t.Errorf("steps = %d, want 3 (R1, R2, R3 each fire once)", final.Result.Steps)
	}
}

// oracleExample1 runs Example 1 in-process on the given initial multiset and
// returns the stable state's literal — the differential oracle.
func oracleExample1(t *testing.T, init string) string {
	t.Helper()
	f, err := gammalang.ParseFile(paper.Example1GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.Plan("oracle")
	if err != nil {
		t.Fatal(err)
	}
	m, err := multiset.Parse(init)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunContext(context.Background(), m, gamma.Options{MaxSteps: 10000}); err != nil {
		t.Fatal(err)
	}
	return m.String()
}

// TestSyncWait pins ?wait=true: one round trip returns the terminal state.
func TestSyncWait(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{MaxSteps: 10000})
	hres, resp := postRun(t, ts, req, "?wait=true", "")
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("sync status = %d, want 200", hres.StatusCode)
	}
	if resp.State != schema.StateDone {
		t.Fatalf("sync state = %s, want done", resp.State)
	}
	if want := oracleExample1(t, paper.Example1InitialMultiset); resp.Result.Multiset != want {
		t.Fatalf("sync multiset = %q, want %q", resp.Result.Multiset, want)
	}
}

// TestDataflowKind submits a dataflow graph (Example 1 as Fig. 1 wiring) and
// checks the output token arrives rendered value@tag.
func TestDataflowKind(t *testing.T) {
	const graph = `graph ex1
const x = 1
const y = 5
const k = 3
const j = 2
arith add +
arith mul *
arith sub -
edge a x:0 -> add:0
edge b y:0 -> add:1
edge c k:0 -> mul:0
edge d j:0 -> mul:1
edge e add:0 -> sub:0
edge f mul:0 -> sub:1
edge m sub:0 -> out
`
	_, ts := newTestServer(t, Config{Pool: 1})
	hres, resp := postRun(t, ts, schema.NewGraphRequest(graph, schema.RunSpec{}), "?wait=true", "")
	if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
		t.Fatalf("dataflow run: status %d state %s err %+v", hres.StatusCode, resp.State, resp.Error)
	}
	out := resp.Result.Outputs["m"]
	if len(out) != 1 || !strings.HasPrefix(out[0], "0@") {
		t.Fatalf("output m = %v, want one token 0@tag", out)
	}
}

// TestMatrixEngineKind pins the wire-minor-1.1 engine value end to end: a
// dataflow submission selecting matrix is accepted and runs the one dataflow
// schedule to the default output, and a Gamma submission selecting it
// bounces at admission.
func TestMatrixEngineKind(t *testing.T) {
	const graph = `graph ex1
const x = 1
const y = 5
const k = 3
const j = 2
arith add +
arith mul *
arith sub -
edge a x:0 -> add:0
edge b y:0 -> add:1
edge c k:0 -> mul:0
edge d j:0 -> mul:1
edge e add:0 -> sub:0
edge f mul:0 -> sub:1
edge m sub:0 -> out
`
	_, ts := newTestServer(t, Config{Pool: 1})
	req := schema.NewGraphRequest(graph, schema.RunSpec{Engine: schema.EngineMatrix})
	hres, resp := postRun(t, ts, req, "?wait=true", "")
	if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
		t.Fatalf("matrix run: status %d state %s err %+v", hres.StatusCode, resp.State, resp.Error)
	}
	out := resp.Result.Outputs["m"]
	if len(out) != 1 || !strings.HasPrefix(out[0], "0@") {
		t.Fatalf("output m = %v, want one token 0@tag", out)
	}
	if resp.Result.Steps != 7 {
		t.Errorf("steps = %d, want 7 (4 consts + 3 operators)", resp.Result.Steps)
	}

	greq := schema.NewGammaRequest(counterProgram, counterInit,
		schema.RunSpec{Engine: schema.EngineMatrix, MaxSteps: 10})
	ghres, gresp := postRun(t, ts, greq, "", "")
	if ghres.StatusCode != http.StatusBadRequest {
		t.Fatalf("gamma+matrix status = %d, want 400", ghres.StatusCode)
	}
	if gresp.Error == nil || gresp.Error.Code != rt.CodeInvalid {
		t.Fatalf("gamma+matrix error = %+v, want code invalid", gresp.Error)
	}
}

// TestCancelRun cancels a divergent run via DELETE and checks it lands in
// the canceled state with the canceled wire code.
func TestCancelRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	req := schema.NewGammaRequest(counterProgram, counterInit, schema.RunSpec{})
	hres, resp := postRun(t, ts, req, "", "")
	if hres.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", hres.StatusCode)
	}

	// Let it start spinning, then cancel.
	time.Sleep(10 * time.Millisecond)
	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/runs/"+resp.ID, nil)
	dres, err := ts.Client().Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	if dres.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", dres.StatusCode)
	}

	final := waitTerminal(t, ts, resp.ID)
	if final.State != schema.StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", final.State)
	}
	if final.Error == nil || final.Error.Code != rt.CodeCanceled {
		t.Fatalf("error after cancel = %+v, want code canceled", final.Error)
	}
}

// TestMalformedRequests pins the 4xx surface: broken JSON, bad versions and
// unknown runs must never reach the pool.
func TestMalformedRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, MaxBody: 2048})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"broken json", `{"version": "1.0",`, 400, rt.CodeParse},
		{"wrong major", `{"version": "9.0", "kind": "gamma", "program": "x"}`, 400, rt.CodeInvalid},
		{"missing kind", `{"version": "1.0", "program": "x"}`, 400, rt.CodeInvalid},
		{"gamma parse error", `{"version": "1.0", "kind": "gamma", "program": "replace"}`, 400, rt.CodeParse},
		{"bad init literal", fmt.Sprintf(`{"version": "1.0", "kind": "gamma", "program": %q, "init": "{oops"}`, counterProgram), 400, rt.CodeParse},
		{"bad graph", `{"version": "1.0", "kind": "dataflow", "graph": "graph g\nbogus line\n"}`, 400, rt.CodeParse},
		{"oversized body", `{"version": "1.0", "kind": "gamma", "program": "` + strings.Repeat("x", 4096) + `"}`, 400, rt.CodeInvalid},
	}
	for _, c := range cases {
		hres, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var resp schema.RunResponse
		if derr := json.NewDecoder(hres.Body).Decode(&resp); derr != nil {
			t.Fatalf("%s: decode: %v", c.name, derr)
		}
		hres.Body.Close()
		if hres.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, hres.StatusCode, c.status)
		}
		if resp.Error == nil || resp.Error.Code != c.code {
			t.Errorf("%s: error = %+v, want code %s", c.name, resp.Error, c.code)
		}
	}

	if hres, _ := getRun(t, ts, "r-999"); hres.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run: status = %d, want 404", hres.StatusCode)
	}
	if s.reg.CounterValue("service.submitted") != 0 {
		t.Errorf("malformed requests must not count as submissions")
	}
}

// TestConcurrencyQuota429 pins the per-tenant in-flight gate: with
// MaxConcurrent 2, a tenant's third simultaneous run bounces with 429 and
// Retry-After while another tenant still gets in.
func TestConcurrencyQuota429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Pool:       4,
		QueueDepth: 16,
		Tenants:    map[string]Quota{"alice": {MaxConcurrent: 2}},
	})
	req := schema.NewGammaRequest(counterProgram, counterInit, schema.RunSpec{})

	var held []string
	for i := 0; i < 2; i++ {
		hres, resp := postRun(t, ts, req, "", "alice")
		if hres.StatusCode != http.StatusAccepted {
			t.Fatalf("run %d: status = %d", i, hres.StatusCode)
		}
		held = append(held, resp.ID)
	}
	hres, resp := postRun(t, ts, req, "", "alice")
	if hres.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third concurrent run: status = %d, want 429", hres.StatusCode)
	}
	if hres.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if resp.Error == nil || resp.Error.Code != "too_busy" {
		t.Errorf("429 error = %+v, want code too_busy", resp.Error)
	}
	// An unrelated tenant is unaffected by alice's quota.
	if hres, _ := postRun(t, ts, req, "", "bob"); hres.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant: status = %d, want 202", hres.StatusCode)
	}
	if s.reg.CounterValue("service.rejected.concurrency") != 1 {
		t.Errorf("rejected.concurrency = %d, want 1", s.reg.CounterValue("service.rejected.concurrency"))
	}

	// Canceling one held run frees the slot.
	ts.Client().Do(mustReq(t, "DELETE", ts.URL+"/v1/runs/"+held[0]))
	waitTerminal(t, ts, held[0])
	if hres, _ := postRun(t, ts, req, "", "alice"); hres.StatusCode != http.StatusAccepted {
		t.Errorf("after cancel: status = %d, want 202 (slot freed)", hres.StatusCode)
	}
}

func mustReq(t *testing.T, method, url string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestQueueFull429 pins global backpressure: Pool 1 + QueueDepth 1 saturate
// after two divergent submissions; the next one bounces.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 1})
	req := schema.NewGammaRequest(counterProgram, counterInit, schema.RunSpec{})

	// First run occupies the executor (wait until it is off the queue),
	// second fills the queue, third must bounce.
	_, first := postRun(t, ts, req, "", "")
	waitState(t, ts, first.ID, schema.StateRunning)
	if hres, _ := postRun(t, ts, req, "", ""); hres.StatusCode != http.StatusAccepted {
		t.Fatalf("queued run: status = %d, want 202", hres.StatusCode)
	}
	hres, _ := postRun(t, ts, req, "", "")
	if hres.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue run: status = %d, want 429", hres.StatusCode)
	}
	if s.reg.CounterValue("service.rejected.queue") != 1 {
		t.Errorf("rejected.queue = %d, want 1", s.reg.CounterValue("service.rejected.queue"))
	}
}

func waitState(t *testing.T, ts *httptest.Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, resp := getRun(t, ts, id)
		if resp.State == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached state %s", id, state)
}

// TestStepBudget429 pins the cumulative budget gate: a tenant whose runs
// have spent their firing allowance gets 429 on the next submission, and a
// single run never overdraws the remaining budget — on the Gamma engine and
// under every dataflow engine spelling, which refuse the firing that would
// exceed it.
func TestStepBudget429(t *testing.T) {
	// Both programs run forever, so they burn exactly their per-run cap.
	const spinner = "graph spin\nconst c = 1\ninctag inc\ncopy cp\n" +
		"edge seed c:0 -> inc:0\nedge fwd inc:0 -> cp:0\nedge back cp:0 -> inc:0\n"
	for name, req := range map[string]schema.RunRequest{
		"gamma":             schema.NewGammaRequest(counterProgram, counterInit, schema.RunSpec{MaxSteps: 5000}),
		"dataflow-seq":      schema.NewGraphRequest(spinner, schema.RunSpec{MaxSteps: 5000}),
		"dataflow-parallel": schema.NewGraphRequest(spinner, schema.RunSpec{MaxSteps: 5000, Engine: schema.EngineParallel, Workers: 4}),
		"dataflow-matrix":   schema.NewGraphRequest(spinner, schema.RunSpec{MaxSteps: 5000, Engine: schema.EngineMatrix}),
	} {
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{
				Pool:    1,
				Tenants: map[string]Quota{"carol": {StepBudget: 100}},
			})
			// Ask for more than the remaining budget and check the clamp.
			hres, resp := postRun(t, ts, req, "?wait=true", "carol")
			if hres.StatusCode != http.StatusRequestTimeout {
				t.Fatalf("budget-capped run: status = %d, want 408 (max_steps)", hres.StatusCode)
			}
			if resp.Error == nil || resp.Error.Code != rt.CodeMaxSteps {
				t.Fatalf("budget-capped run error = %+v, want max_steps", resp.Error)
			}
			if resp.Result.Steps != 100 {
				t.Fatalf("steps = %d, want exactly the 100-step budget", resp.Result.Steps)
			}
			s.mu.Lock()
			used := s.tenants["carol"].stepsUsed
			s.mu.Unlock()
			if used != 100 {
				t.Fatalf("tenant charged %d steps against a 100-step budget", used)
			}

			hres, resp = postRun(t, ts, req, "", "carol")
			if hres.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("post-exhaustion run: status = %d, want 429", hres.StatusCode)
			}
			if resp.Error == nil || resp.Error.Code != "too_busy" {
				t.Errorf("post-exhaustion error = %+v, want too_busy", resp.Error)
			}
			if s.reg.CounterValue("service.rejected.budget") != 1 {
				t.Errorf("rejected.budget = %d, want 1", s.reg.CounterValue("service.rejected.budget"))
			}
		})
	}
}

// TestClientDisconnectCancelsRun pins the context-first contract end to end:
// a ?wait=true caller that goes away mid-run cancels the run on the server.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1})
	req := schema.NewGammaRequest(counterProgram, counterInit, schema.RunSpec{})
	body, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/runs?wait=true", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		res, err := ts.Client().Do(hreq)
		if res != nil {
			res.Body.Close()
		}
		errc <- err
	}()

	// Wait for the run to actually start, then hang up.
	waitState(t, ts, "r-1", schema.StateRunning)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request should error on the client side")
	}

	run, err := s.Lookup("r-1")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-run.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("run not canceled after client disconnect")
	}
	if resp := run.snapshot(); resp.State != schema.StateCanceled {
		t.Fatalf("state after disconnect = %s, want canceled", resp.State)
	}
}

// TestHealthz checks the load snapshot endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 3, QueueDepth: 7})
	hres, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var h schema.Health
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Pool != 3 || h.QueueDepth != 7 || h.Version != schema.WireVersion {
		t.Fatalf("health = %+v", h)
	}
}

// TestConcurrent200Differential is the acceptance gate: 200 concurrent
// Example-1 runs with per-run distinct inputs, every response compared to
// the in-process oracle. Any cross-run state leakage (a shared multiset, a
// swapped result, a lost token) shows up as a mismatch.
func TestConcurrent200Differential(t *testing.T) {
	const n = 200
	_, ts := newTestServer(t, Config{Pool: 8, QueueDepth: n, Retain: n})

	// Per-run distinct input: x = i makes the stable state {[i - 1, 'm']}.
	initFor := func(i int) string {
		return fmt.Sprintf(`{[%d, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1']}`, i)
	}
	oracle := make([]string, n)
	for i := 0; i < n; i++ {
		oracle[i] = oracleExample1(t, initFor(i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := schema.NewGammaRequest(paper.Example1GammaListing, initFor(i), schema.RunSpec{MaxSteps: 10000})
			body, _ := json.Marshal(req)
			hres, err := ts.Client().Post(ts.URL+"/v1/runs?wait=true", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- fmt.Errorf("run %d: %v", i, err)
				return
			}
			defer hres.Body.Close()
			var resp schema.RunResponse
			if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
				errs <- fmt.Errorf("run %d: decode: %v", i, err)
				return
			}
			if hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
				errs <- fmt.Errorf("run %d: status %d state %s error %+v", i, hres.StatusCode, resp.State, resp.Error)
				return
			}
			if resp.Result.Multiset != oracle[i] {
				errs <- fmt.Errorf("run %d: stable state %q, oracle %q (cross-run leakage?)", i, resp.Result.Multiset, oracle[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCloseCancelsEverything checks Close drains: queued and running runs
// land canceled, later submissions get ErrClosed.
func TestCloseCancelsEverything(t *testing.T) {
	s := New(Config{Pool: 1, QueueDepth: 4})
	req := schema.NewGammaRequest(counterProgram, counterInit, schema.RunSpec{})
	var runs []*Run
	for i := 0; i < 3; i++ {
		wreq, err := schema.DecodeRunRequest(mustEncode(t, req))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Submit(wreq, "dave")
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	s.Close()
	for _, r := range runs {
		select {
		case <-r.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("run %s not terminal after Close", r.ID)
		}
		if resp := r.snapshot(); resp.State != schema.StateCanceled {
			t.Errorf("run %s state = %s after Close, want canceled", r.ID, resp.State)
		}
	}
	if _, err := s.Submit(&req, "dave"); err != ErrClosed {
		t.Errorf("submit after Close = %v, want ErrClosed", err)
	}
}

func mustEncode(t *testing.T, req schema.RunRequest) []byte {
	t.Helper()
	b, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
