package schema

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"repro/internal/paper"
	"repro/internal/rt"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire golden files from this build's encoder")

// TestWireGoldenExample1 pins the v1 JSON of the paper's Example 1 byte for
// byte: the envelope a v1 client produces for the canonical workload must
// never drift, because deployed servers parse it. Regenerate deliberately
// with go test ./internal/schema -run Golden -update after a (minor,
// additive) format change.
func TestWireGoldenExample1(t *testing.T) {
	req := NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		RunSpec{MaxSteps: 10000})
	got, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "example1_v1.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("example1 v1 envelope drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}

	// And the golden decodes back to the identical request (round trip).
	back, err := DecodeRunRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	if *back != req {
		t.Fatalf("golden round trip changed the request:\ngot  %+v\nwant %+v", *back, req)
	}
}

// TestWireGoldenMatrixRequest pins the 1.1 envelope selecting the matrix
// engine — the additive enum value the minor bump introduced.
func TestWireGoldenMatrixRequest(t *testing.T) {
	req := NewGraphRequest("graph g\nconst c 1\nout c m\n",
		RunSpec{Engine: EngineMatrix, MaxSteps: 500})
	got, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "matrix_v1_1.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("matrix v1.1 envelope drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
	back, err := DecodeRunRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	if *back != req {
		t.Fatalf("golden round trip changed the request:\ngot  %+v\nwant %+v", *back, req)
	}
	if back.Spec.Engine != EngineMatrix {
		t.Fatalf("engine lost in round trip: %q", back.Spec.Engine)
	}
}

// TestWireGoldenTraceRequest pins the 1.2 envelope asking for a traced run —
// the additive knob the 1.2 minor bump introduced.
func TestWireGoldenTraceRequest(t *testing.T) {
	req := NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		RunSpec{Engine: EngineSeq, MaxSteps: 10000, Trace: true})
	got, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_v1_2.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace v1.2 envelope drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
	back, err := DecodeRunRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	if *back != req {
		t.Fatalf("golden round trip changed the request:\ngot  %+v\nwant %+v", *back, req)
	}
	if !back.Spec.Trace {
		t.Fatal("trace knob lost in round trip")
	}
}

// TestWireGoldenReplayRequest pins the 1.3 replay envelope — the schedule-
// carrying submission of POST /v1/replay the 1.3 minor bump introduced.
func TestWireGoldenReplayRequest(t *testing.T) {
	schedule := `{"schedule":"v1","kind":"gamma","name":"ex1","steps":1}` + "\n" +
		`{"step":1,"seq":1,"name":"R1","consumed":["01\u001f3'A1'","05\u001f3'B1'"],"produced":["06\u001f3'B2'"]}` + "\n"
	req := NewGammaReplayRequest(paper.Example1GammaListing, paper.Example1InitialMultiset, schedule)
	got, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "replay_v1_3.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replay v1.3 envelope drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
	back, err := DecodeReplayRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	if *back != req {
		t.Fatalf("golden round trip changed the request:\ngot  %+v\nwant %+v", *back, req)
	}
}

// TestReplayRequestValidate exercises the replay envelope's shape rules.
func TestReplayRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		data string
		want error
	}{
		{"gamma without program", `{"version": "1.3", "kind": "gamma", "schedule": "s"}`, rt.ErrInvalid},
		{"gamma with graph", `{"version": "1.3", "kind": "gamma", "program": "x", "graph": "g", "schedule": "s"}`, rt.ErrInvalid},
		{"dataflow without graph", `{"version": "1.3", "kind": "dataflow", "schedule": "s"}`, rt.ErrInvalid},
		{"dataflow with program", `{"version": "1.3", "kind": "dataflow", "graph": "g", "program": "x", "schedule": "s"}`, rt.ErrInvalid},
		{"missing schedule", `{"version": "1.3", "kind": "dataflow", "graph": "g"}`, rt.ErrInvalid},
		{"missing kind", `{"version": "1.3", "schedule": "s"}`, rt.ErrInvalid},
		{"major 2", `{"version": "2.0", "kind": "gamma", "program": "x", "schedule": "s"}`, rt.ErrInvalid},
		{"not json", `{`, rt.ErrParse},
	}
	for _, c := range cases {
		if _, err := DecodeReplayRequest([]byte(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: DecodeReplayRequest = %v, want %v", c.name, err, c.want)
		}
	}
	good := `{"version": "1.2", "kind": "dataflow", "graph": "g", "schedule": "s", "future": true}`
	if _, err := DecodeReplayRequest([]byte(good)); err != nil {
		t.Errorf("older-stamped replay request with unknown fields rejected: %v", err)
	}
}

// TestReplayResponseRoundTrip checks the divergence report survives the wire.
func TestReplayResponseRoundTrip(t *testing.T) {
	resp := ReplayResponse{
		Version: WireVersion, Kind: KindGamma, Steps: 4, Stable: false,
		Multiset: "{[1, 'A1']}",
		Divergence: &WireDivergence{
			Step: 5, Seq: 5, Name: "R3", Reason: "product-mismatch",
			Expected: []string{"06\x1f3'B2'"}, Actual: []string{"07\x1f3'B2'"},
			Ancestors: []int{1, 3},
		},
	}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReplayResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	d := back.Divergence
	if d == nil || d.Step != 5 || d.Reason != "product-mismatch" || len(d.Ancestors) != 2 {
		t.Fatalf("divergence mis-decoded: %+v", d)
	}
	if _, err := DecodeReplayResponse([]byte(`{"version": "2.0"}`)); !errors.Is(err, rt.ErrInvalid) {
		t.Fatal("major-2 replay response accepted")
	}
}

// TestOldServerIgnoresTrace proves the 1.2 minor contract in the backward
// direction: the Trace field is invisible to a decoder that does not know it
// (json ignores unknown fields), and a 1.1-stamped envelope carrying it still
// validates here.
func TestOldServerIgnoresTrace(t *testing.T) {
	req := []byte(`{"version": "1.1", "kind": "dataflow", "graph": "g", "spec": {"trace": true}}`)
	r, err := DecodeRunRequest(req)
	if err != nil {
		t.Fatalf("1.1-stamped traced request rejected: %v", err)
	}
	if !r.Spec.Trace {
		t.Fatal("trace knob dropped on decode")
	}
}

// TestRunStatsRoundTrip checks the 1.2 stats payload decodes with the usual
// version gate and keeps its fields.
func TestRunStatsRoundTrip(t *testing.T) {
	s := RunStats{
		Version: WireVersion, ID: "r-7", State: StateDone, Kind: KindGamma,
		Tenant: "alice", Engine: EngineSeq, Traced: true,
		Steps: 12, WallMS: 1.5, QueueWaitMS: 0.2,
		TraceEvents: 12, TraceDropped: 0, Firings: 12,
		Counters: map[string]int64{"gamma.steps": 12},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunStats(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Firings != 12 || back.Steps != 12 || !back.Traced || back.Counters["gamma.steps"] != 12 {
		t.Fatalf("stats mis-decoded: %+v", back)
	}
	if _, err := DecodeRunStats([]byte(`{"version": "2.0", "id": "x"}`)); !errors.Is(err, rt.ErrInvalid) {
		t.Fatalf("major-2 stats accepted: %v", err)
	}
	if _, err := DecodeRunStats([]byte(`{`)); !errors.Is(err, rt.ErrParse) {
		t.Fatal("broken stats JSON not ErrParse")
	}
}

// TestOldClientDecodesMatrixMentions proves the minor-version contract for
// the 1.1 bump: a peer that only knows 1.0 semantics still decodes envelopes
// whose version is 1.1 and whose payloads mention the matrix engine —
// CheckWireVersion gates on the major alone, and enum values in responses are
// opaque strings to the decoder.
func TestOldClientDecodesMatrixMentions(t *testing.T) {
	resp := []byte(`{
		"version": "1.1",
		"id": "r-42",
		"state": "failed",
		"kind": "dataflow",
		"error": {"code": "invalid", "message": "engine \"matrix\" runs dataflow graphs only"}
	}`)
	r, err := DecodeRunResponse(resp)
	if err != nil {
		t.Fatalf("1.0-era decode path rejected a 1.1 response: %v", err)
	}
	if r.State != StateFailed || r.Error == nil || !errors.Is(r.Error.Err(), rt.ErrInvalid) {
		t.Fatalf("known fields mis-decoded: %+v", r)
	}

	// The engine enum is orthogonal to the envelope version: a request
	// stamped 1.0 that selects matrix still validates on a 1.1 server.
	req := []byte(`{"version": "1.0", "kind": "dataflow", "graph": "g", "spec": {"engine": "matrix"}}`)
	if _, err := DecodeRunRequest(req); err != nil {
		t.Fatalf("1.0-stamped matrix request rejected: %v", err)
	}
}

func TestWireVersionChecks(t *testing.T) {
	for _, v := range []string{"1.0", "1.1", "1.99"} {
		if err := CheckWireVersion(v); err != nil {
			t.Errorf("CheckWireVersion(%q) = %v, want nil (minor bumps are additive)", v, err)
		}
	}
	for _, v := range []string{"", "2.0", "0.9", "x.y", "3"} {
		err := CheckWireVersion(v)
		if !errors.Is(err, rt.ErrInvalid) {
			t.Errorf("CheckWireVersion(%q) = %v, want rt.ErrInvalid", v, err)
		}
	}
}

func TestDecodeToleratesUnknownFields(t *testing.T) {
	// A newer minor version may add fields; this build must ignore them.
	data := []byte(`{
		"version": "1.7",
		"kind": "gamma",
		"program": "R = replace [x], [y] by [x] if x < y",
		"init": "{[3], [1], [2]}",
		"spec": {"max_steps": 100, "priority": "batch"},
		"labels": {"team": "runtime"}
	}`)
	req, err := DecodeRunRequest(data)
	if err != nil {
		t.Fatalf("DecodeRunRequest with unknown fields: %v", err)
	}
	if req.Kind != KindGamma || req.Spec.MaxSteps != 100 {
		t.Fatalf("known fields mis-decoded: %+v", req)
	}

	resp := []byte(`{"version": "1.3", "id": "r-1", "state": "done", "shard": 4}`)
	r, err := DecodeRunResponse(resp)
	if err != nil || r.ID != "r-1" || r.State != StateDone {
		t.Fatalf("DecodeRunResponse with unknown fields: %+v, %v", r, err)
	}
}

func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want error
	}{
		{"not json", `{`, rt.ErrParse},
		{"missing version", `{"kind": "gamma", "program": "R = replace [x] by 0"}`, rt.ErrInvalid},
		{"major 2", `{"version": "2.0", "kind": "gamma", "program": "R = replace [x] by 0"}`, rt.ErrInvalid},
		{"missing kind", `{"version": "1.0", "program": "R = replace [x] by 0"}`, rt.ErrInvalid},
		{"unknown kind", `{"version": "1.0", "kind": "petri", "program": "x"}`, rt.ErrInvalid},
		{"gamma without program", `{"version": "1.0", "kind": "gamma"}`, rt.ErrInvalid},
		{"gamma with graph", `{"version": "1.0", "kind": "gamma", "program": "x", "graph": "y"}`, rt.ErrInvalid},
		{"dataflow without graph", `{"version": "1.0", "kind": "dataflow"}`, rt.ErrInvalid},
		{"dataflow with program", `{"version": "1.0", "kind": "dataflow", "graph": "g", "program": "x"}`, rt.ErrInvalid},
		{"bad engine", `{"version": "1.0", "kind": "dataflow", "graph": "g", "spec": {"engine": "quantum"}}`, rt.ErrInvalid},
		{"gamma with matrix engine", `{"version": "1.1", "kind": "gamma", "program": "x", "spec": {"engine": "matrix"}}`, rt.ErrInvalid},
		{"negative steps", `{"version": "1.0", "kind": "dataflow", "graph": "g", "spec": {"max_steps": -1}}`, rt.ErrInvalid},
		{"too many workers", `{"version": "1.0", "kind": "gamma", "program": "x", "spec": {"workers": 2000000000}}`, rt.ErrInvalid},
	}
	for _, c := range cases {
		_, err := DecodeRunRequest([]byte(c.data))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: DecodeRunRequest = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestRunSpecWorkersBound: Validate accepts MaxWorkers and refuses one more.
func TestRunSpecWorkersBound(t *testing.T) {
	if err := (RunSpec{Workers: MaxWorkers}).Validate(); err != nil {
		t.Errorf("workers = MaxWorkers: %v", err)
	}
	for _, w := range []int{MaxWorkers + 1, 2_000_000_000} {
		if err := (RunSpec{Workers: w}).Validate(); !errors.Is(err, rt.ErrInvalid) {
			t.Errorf("workers = %d: err = %v, want rt.ErrInvalid", w, err)
		}
	}
}

func TestRunSpecEffectiveWorkers(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want func(int) bool
		desc string
	}{
		{RunSpec{}, func(w int) bool { return w == 0 }, "auto default sequential"},
		{RunSpec{Workers: 8}, func(w int) bool { return w == 8 }, "auto explicit workers"},
		{RunSpec{Engine: EngineSeq, Workers: 8}, func(w int) bool { return w == 1 }, "seq forces 1"},
		{RunSpec{Engine: EngineMatrix, Workers: 8}, func(w int) bool { return w == 1 }, "matrix forces 1"},
		{RunSpec{Engine: EngineParallel, Workers: 4}, func(w int) bool { return w == 4 }, "parallel explicit"},
		{RunSpec{Engine: EngineParallel}, func(w int) bool { return w >= 2 }, "parallel default >= 2"},
	}
	for _, c := range cases {
		if got := c.spec.EffectiveWorkers(); !c.want(got) {
			t.Errorf("%s: EffectiveWorkers() = %d", c.desc, got)
		}
	}
}

func TestWireErrorRoundTrip(t *testing.T) {
	orig := rt.Mark(rt.ErrMaxSteps, errors.New("gamma: maximum step count exceeded"))
	we := NewWireError(orig)
	if we.Code != rt.CodeMaxSteps {
		t.Fatalf("code = %q, want %q", we.Code, rt.CodeMaxSteps)
	}
	back := we.Err()
	if !errors.Is(back, rt.ErrMaxSteps) {
		t.Fatalf("reconstructed error lost its class: %v", back)
	}
	if NewWireError(nil) != nil || (*WireError)(nil).Err() != nil {
		t.Fatal("nil error must round-trip to nil")
	}
}

// FuzzDecodeRunRequest feeds the submission decoders — gammad's trust
// boundary — arbitrary bytes, each input as a run and as a replay request.
// Neither may panic; any envelope they accept must Encode and decode back to
// the same request; and the payload rules the two envelopes share are one:
// JSON the payload cannot read is rt.ErrParse in both, and a payload that
// breaks its rules fails both with exactly the payload's rt.ErrInvalid,
// unless the envelope's own field does not parse (rt.ErrParse).
func FuzzDecodeRunRequest(f *testing.F) {
	example := NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		RunSpec{Engine: EngineSeq, Workers: 2, Seed: 7, MaxSteps: 100, TimeoutMS: 50, Trace: true})
	data, err := example.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, seed := range []string{
		`{"version": "1.0", "kind": "dataflow", "graph": "graph g\n", "spec": {"engine": "matrix"}}`,
		`{"version": "1.3", "kind": "gamma", "program": "R = replace [x] by 0", "extra": [1, {"a": null}]}`,
		`{"version": "1.0", "kind": "gamma", "program": "x", "spec": {"workers": 1025}}`,
		`{"version": "1.0", "kind": "gamma", "program": "é\ud800", "init": "{[1]}"}`,
		`{"version": "1.3", "kind": "gamma", "program": "x", "schedule": "s"}`,
		`{"version": "1.3", "kind": "dataflow", "program": "x", "schedule": 5, "spec": 5}`,
		`{"version": "2.0"}`, `{`, `null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p payload
		perr := json.Unmarshal(data, &p)
		var verdict error
		if perr == nil {
			verdict = p.validate()
		}
		run, runErr := DecodeRunRequest(data)
		replay, replayErr := DecodeReplayRequest(data)
		for envelope, err := range map[string]error{"run": runErr, "replay": replayErr} {
			switch {
			case perr != nil && !errors.Is(err, rt.ErrParse):
				t.Fatalf("%s request: err %v on JSON the payload cannot read (%v), want rt.ErrParse", envelope, err, perr)
			case verdict != nil && (err == nil || !errors.Is(err, rt.ErrParse) && err.Error() != verdict.Error()):
				t.Fatalf("%s request: err %v on a payload that fails its rules with %v", envelope, err, verdict)
			}
		}
		if run != nil {
			enc, err := run.Encode()
			if err != nil {
				t.Fatalf("accepted request does not encode: %v", err)
			}
			back, err := DecodeRunRequest(enc)
			if err != nil {
				t.Fatalf("encoded request does not decode: %v\n%s", err, enc)
			}
			if *back != *run {
				t.Fatalf("round trip changed the request:\n%+v\n%+v", *run, *back)
			}
		}
		if replay != nil {
			enc, err := replay.Encode()
			if err != nil {
				t.Fatalf("accepted replay request does not encode: %v", err)
			}
			back, err := DecodeReplayRequest(enc)
			if err != nil {
				t.Fatalf("encoded replay request does not decode: %v\n%s", err, enc)
			}
			if *back != *replay {
				t.Fatalf("round trip changed the replay request:\n%+v\n%+v", *replay, *back)
			}
		}
	})
}

// TestReadBody: the declared length sizes the buffer and nothing else — a
// body reads whole whether it is as long as declared, shorter, longer, empty
// or of unknown length — and the reader's own error comes back.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("gamma "), 100)
	for _, n := range []int64{int64(len(body)), 10, 0, -1, 1 << 20, 2 << 20} {
		got, err := ReadBody(bytes.NewReader(body), n, 1<<20)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("declared %d: read %d bytes, err %v; want the %d-byte body", n, len(got), err, len(body))
		}
	}
	if got, err := ReadBody(bytes.NewReader(nil), 0, 1<<20); err != nil || len(got) != 0 {
		t.Errorf("empty body: %q, %v", got, err)
	}
	broken := errors.New("connection reset")
	if _, err := ReadBody(io.MultiReader(bytes.NewReader(body), iotest.ErrReader(broken)), int64(len(body)), 1<<20); !errors.Is(err, broken) {
		t.Errorf("a failing reader: err = %v, want %v", err, broken)
	}
}
