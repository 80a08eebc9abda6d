package schema

// The versioned wire format of the gammad service (cmd/gammad,
// internal/service): JSON envelopes that carry Gamma programs and dataflow
// graphs over HTTP, plus the serializable RunSpec both the service and the
// library facade configure runs from.
//
// Versioning contract (v1):
//
//   - every envelope carries a top-level "version" of the form
//     "<major>.<minor>";
//   - decoders reject unknown MAJOR versions with rt.ErrInvalid — a major
//     bump is allowed to change field meanings;
//   - decoders tolerate unknown fields and unknown MINOR versions — a minor
//     bump may only add fields, so an old server understands a newer
//     client's envelope by ignoring what it does not know, and vice versa;
//   - error codes are the stable identifiers of rt.Code.
//
// The program payloads reuse the repository's existing text formats rather
// than inventing JSON mirrors of the ASTs: Gamma programs travel as Fig. 3
// grammar source plus a multiset literal, dataflow graphs as dfir text. Both
// are the formats the cmd/ tools already read and write, so anything that
// can be run locally can be POSTed verbatim.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/rt"
)

// Wire format version. Minor bumps are additive; major bumps may break.
// 1.1 added EngineMatrix to the engine enum — old 1.0 peers ignore specs and
// responses mentioning it per the minor-version contract. 1.2 added the
// RunSpec.Trace knob and the RunStats payload of GET /v1/runs/{id}/stats; a
// 1.1 server ignores Trace (the run simply goes untraced) and a 1.1 client
// never asks for stats, so both directions stay additive. 1.3 added the
// schedule trace format (?format=schedule on the trace endpoint) and the
// POST /v1/replay envelopes (ReplayRequest/ReplayResponse); older servers
// 404 the endpoint and reject the format, older clients never call either.
const (
	WireMajor   = 1
	WireMinor   = 3
	WireVersion = "1.3"
)

// CheckWireVersion validates an envelope's version field: missing or
// malformed versions and unknown major versions are rt.ErrInvalid; any minor
// version under the known major is accepted (minor bumps are additive).
func CheckWireVersion(v string) error {
	if v == "" {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: missing version (want %q)", WireVersion))
	}
	major, _, ok := strings.Cut(v, ".")
	if !ok {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: malformed version %q (want major.minor)", v))
	}
	n, err := strconv.Atoi(major)
	if err != nil {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: malformed version %q: %v", v, err))
	}
	if n != WireMajor {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: unsupported major version %d (this build speaks %s)", n, WireVersion))
	}
	return nil
}

// Engines selectable in a RunSpec. Auto picks sequential unless Workers asks
// for more; the explicit values force one side regardless of Workers.
const (
	EngineAuto     = ""         // sequential unless Workers > 1
	EngineSeq      = "seq"      // the deterministic sequential interpreter
	EngineParallel = "parallel" // Gamma's sub-solution runtime; a dataflow run executes sequentially
	// EngineMatrix (wire minor 1.1, dataflow runs only) named the retired
	// bulk-synchronous tick schedule; a dataflow run that asks for it runs
	// the one FIFO schedule. Gamma runs reject it at Validate.
	EngineMatrix = "matrix"
)

// RunSpec is the serializable core of a run configuration: the knobs that
// make sense both for an in-process library call and for a run submitted to
// gammad over the wire. The facade embeds it in RunConfig (so library
// callers set these fields directly) and RunRequest embeds it in the
// envelope (so the service configures runs from the same struct instead of a
// parallel one).
type RunSpec struct {
	// Engine selects the execution engine: EngineAuto, EngineSeq,
	// EngineParallel or EngineMatrix. Unknown values fail Validate with
	// rt.ErrInvalid.
	Engine string `json:"engine,omitempty"`
	// Workers is the number of Gamma reaction workers. Under EngineAuto, 0
	// or 1 selects the deterministic sequential scheduler; under
	// EngineParallel, 0 means one per CPU. The dataflow runtime runs every
	// execution on one core and ignores it.
	Workers int `json:"workers,omitempty"`
	// Seed seeds nondeterministic choices. The dataflow runtime is
	// tag-deterministic and ignores it.
	Seed int64 `json:"seed,omitempty"`
	// MaxSteps bounds total reaction firings (Gamma) or vertex activations
	// (dataflow); 0 means no bound (the service substitutes its per-run
	// cap). Exhaustion reports rt.ErrMaxSteps.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// TimeoutMS bounds the run's wall-clock time in milliseconds; 0 means no
	// deadline. Expiry reports rt.ErrDeadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks the service to record the run's firing history (wire minor
	// 1.2): event rings plus firing provenance, retained with the terminal run
	// and served at GET /v1/runs/{id}/trace and /stats. Subject to the
	// server's sampling rate — a traced=false in the run's stats means the
	// sampler skipped it. Older servers ignore the field entirely.
	Trace bool `json:"trace,omitempty"`
}

// Validate reports rt.ErrInvalid for specs no engine can execute: unknown
// engine names and negative knobs.
func (s RunSpec) Validate() error {
	switch s.Engine {
	case EngineAuto, EngineSeq, EngineParallel, EngineMatrix:
	default:
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("spec: unknown engine %q (want %q, %q, %q or %q)",
			s.Engine, EngineAuto, EngineSeq, EngineParallel, EngineMatrix))
	}
	if s.Workers < 0 {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("spec: negative workers %d", s.Workers))
	}
	if s.MaxSteps < 0 {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("spec: negative max_steps %d", s.MaxSteps))
	}
	if s.TimeoutMS < 0 {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("spec: negative timeout_ms %d", s.TimeoutMS))
	}
	return nil
}

// EffectiveWorkers resolves Engine and Workers into the worker count the
// runtimes understand (0/1 = sequential, >1 = parallel).
func (s RunSpec) EffectiveWorkers() int {
	switch s.Engine {
	case EngineSeq, EngineMatrix:
		// A matrix spec is a dataflow run, which executes on one core.
		return 1
	case EngineParallel:
		if s.Workers > 1 {
			return s.Workers
		}
		if n := runtime.GOMAXPROCS(0); n > 1 {
			return n
		}
		return 2
	default:
		return s.Workers
	}
}

// Timeout returns TimeoutMS as a duration.
func (s RunSpec) Timeout() time.Duration { return time.Duration(s.TimeoutMS) * time.Millisecond }

// Context derives the run context from ctx: bounded by Timeout when one is
// set, ctx itself (with a no-op cancel) otherwise.
func (s RunSpec) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.TimeoutMS <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.Timeout())
}

// Run kinds: which model a RunRequest submits.
const (
	KindGamma    = "gamma"    // Program (Fig. 3 grammar) + Init (multiset literal)
	KindDataflow = "dataflow" // Graph (dfir text)
)

// RunRequest is the v1 submission envelope of POST /v1/runs.
type RunRequest struct {
	// Version is the wire format version, WireVersion on envelopes this
	// build produces.
	Version string `json:"version"`
	// Kind selects the model: KindGamma or KindDataflow.
	Kind string `json:"kind"`
	// Program is the Gamma source in the Fig. 3 grammar (KindGamma).
	Program string `json:"program,omitempty"`
	// Init is the initial multiset literal, e.g. "{[1,'A1'], [5,'B1']}"
	// (KindGamma; may be empty when Program declares init { ... }).
	Init string `json:"init,omitempty"`
	// Graph is the dataflow graph in dfir text (KindDataflow).
	Graph string `json:"graph,omitempty"`
	// Spec holds the execution knobs.
	Spec RunSpec `json:"spec"`
}

// NewGammaRequest builds a v1 Gamma submission.
func NewGammaRequest(program, init string, spec RunSpec) RunRequest {
	return RunRequest{Version: WireVersion, Kind: KindGamma, Program: program, Init: init, Spec: spec}
}

// NewGraphRequest builds a v1 dataflow submission.
func NewGraphRequest(graph string, spec RunSpec) RunRequest {
	return RunRequest{Version: WireVersion, Kind: KindDataflow, Graph: graph, Spec: spec}
}

// Validate checks the envelope's version, kind, payload shape and spec.
// Violations are rt.ErrInvalid; the payloads themselves are only parsed at
// execution time (their errors are rt.ErrParse).
func (r *RunRequest) Validate() error {
	if err := CheckWireVersion(r.Version); err != nil {
		return err
	}
	switch r.Kind {
	case KindGamma:
		if r.Program == "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: kind %q needs a program", r.Kind))
		}
		if r.Graph != "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: kind %q does not take a graph", r.Kind))
		}
		if r.Spec.Engine == EngineMatrix {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: engine %q runs dataflow graphs only", EngineMatrix))
		}
	case KindDataflow:
		if r.Graph == "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: kind %q needs a graph", r.Kind))
		}
		if r.Program != "" || r.Init != "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: kind %q does not take a program/init", r.Kind))
		}
	case "":
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: missing kind (want %q or %q)", KindGamma, KindDataflow))
	default:
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: unknown kind %q (want %q or %q)", r.Kind, KindGamma, KindDataflow))
	}
	return r.Spec.Validate()
}

// Encode marshals the envelope in the canonical indented form (the form the
// golden files pin).
func (r RunRequest) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeRunRequest unmarshals and validates a v1 submission. Unknown fields
// are tolerated (the minor-version contract); syntactically broken JSON is
// rt.ErrParse, structural violations are rt.ErrInvalid.
func DecodeRunRequest(data []byte) (*RunRequest, error) {
	var r RunRequest
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("wire: %w", err))
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Run states. Pending and running are transient; done, failed and canceled
// are terminal.
const (
	StatePending  = "pending"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// TerminalState reports whether a run in this state will never change again.
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// WireError is the error half of a response envelope: the stable taxonomy
// code (rt.Code) plus the human-readable message.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// NewWireError converts a runtime error into its wire form.
func NewWireError(err error) *WireError {
	if err == nil {
		return nil
	}
	return &WireError{Code: rt.Code(err), Message: err.Error()}
}

// Err reconstructs a classified error from the wire form: the message prints
// as received, and errors.Is matches the sentinel class named by Code (for
// the classes that have one).
func (e *WireError) Err() error {
	if e == nil {
		return nil
	}
	err := fmt.Errorf("remote: %s", e.Message)
	if class := rt.FromCode(e.Code); class != nil {
		return rt.Mark(class, err)
	}
	return err
}

func (e *WireError) Error() string { return fmt.Sprintf("%s (%s)", e.Message, e.Code) }

// RunResult is the payload of a finished (or partially executed) run.
type RunResult struct {
	// Multiset is the final multiset literal of a Gamma run — the stable
	// state under Eq. 1 when the run finished cleanly, the partial state at
	// the point of interruption otherwise.
	Multiset string `json:"multiset,omitempty"`
	// Outputs holds a dataflow run's terminal-edge tokens, each series
	// sorted by tag and rendered "value@tag".
	Outputs map[string][]string `json:"outputs,omitempty"`
	// Steps is the number of reaction firings or vertex activations.
	Steps int64 `json:"steps"`
	// WallMS is the execution wall time in milliseconds (queue wait
	// excluded).
	WallMS float64 `json:"wall_ms"`
}

// RunResponse is the v1 response envelope of the /v1/runs endpoints.
type RunResponse struct {
	Version string `json:"version"`
	// ID names the run for GET /v1/runs/{id} and DELETE /v1/runs/{id}.
	ID string `json:"id"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Kind echoes the submission's kind.
	Kind string `json:"kind,omitempty"`
	// Tenant is the API-key identity the run is accounted against.
	Tenant string `json:"tenant,omitempty"`
	// Result is present once the run has executed (even partially).
	Result *RunResult `json:"result,omitempty"`
	// Error is present on failed and canceled runs, and on rejected
	// submissions.
	Error *WireError `json:"error,omitempty"`
}

// DecodeRunResponse unmarshals a response envelope, tolerating unknown
// fields and rejecting unknown major versions.
func DecodeRunResponse(data []byte) (*RunResponse, error) {
	var r RunResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("wire: %w", err))
	}
	if err := CheckWireVersion(r.Version); err != nil {
		return nil, err
	}
	return &r, nil
}

// Health is the payload of GET /v1/healthz.
type Health struct {
	Version string `json:"version"`
	// Status is "ok" while the service accepts submissions.
	Status string `json:"status"`
	// Pool and QueueDepth echo the server's configured capacity.
	Pool       int `json:"pool"`
	QueueDepth int `json:"queue_depth"`
	// Pending and Running are the current queue occupancy and in-flight
	// executions.
	Pending int `json:"pending"`
	Running int `json:"running"`
	// Completed counts terminal runs since the server started (done, failed
	// and canceled alike).
	Completed int64 `json:"completed"`
}

// DecodeHealth unmarshals a health payload with the same version rules as
// the run envelopes.
func DecodeHealth(data []byte) (*Health, error) {
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("wire: %w", err))
	}
	if err := CheckWireVersion(h.Version); err != nil {
		return nil, err
	}
	return &h, nil
}

// ReplayRequest is the submission envelope of POST /v1/replay (wire minor
// 1.3): a recorded schedule plus the program and initial state to replay it
// against. The replay is self-contained — it does not reference a stored
// run id, because the service consumes a run's initial multiset during
// execution; carrying program+init+schedule also lets a client replay a
// recording made anywhere (another server, a local gammarun) against this
// build's kernels.
type ReplayRequest struct {
	Version string `json:"version"`
	// Kind selects the model and must match the schedule document's own
	// kind header: KindGamma or KindDataflow.
	Kind string `json:"kind"`
	// Program and Init are the Gamma source and initial multiset literal
	// (KindGamma).
	Program string `json:"program,omitempty"`
	Init    string `json:"init,omitempty"`
	// Graph is the dataflow graph in dfir text (KindDataflow).
	Graph string `json:"graph,omitempty"`
	// Schedule is the schedule document (the line-oriented JSON of
	// internal/replay, as exported by GET /v1/runs/{id}/trace?format=schedule).
	Schedule string `json:"schedule"`
}

// NewGammaReplayRequest builds a v1 Gamma replay submission.
func NewGammaReplayRequest(program, init, schedule string) ReplayRequest {
	return ReplayRequest{Version: WireVersion, Kind: KindGamma, Program: program, Init: init, Schedule: schedule}
}

// NewGraphReplayRequest builds a v1 dataflow replay submission.
func NewGraphReplayRequest(graph, schedule string) ReplayRequest {
	return ReplayRequest{Version: WireVersion, Kind: KindDataflow, Graph: graph, Schedule: schedule}
}

// Validate checks the envelope shape with the same rules as RunRequest plus
// a non-empty schedule; the schedule document itself is parsed at execution
// time (rt.ErrParse).
func (r *ReplayRequest) Validate() error {
	if err := CheckWireVersion(r.Version); err != nil {
		return err
	}
	switch r.Kind {
	case KindGamma:
		if r.Program == "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: replay kind %q needs a program", r.Kind))
		}
		if r.Graph != "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: replay kind %q does not take a graph", r.Kind))
		}
	case KindDataflow:
		if r.Graph == "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: replay kind %q needs a graph", r.Kind))
		}
		if r.Program != "" || r.Init != "" {
			return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: replay kind %q does not take a program/init", r.Kind))
		}
	case "":
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: missing kind (want %q or %q)", KindGamma, KindDataflow))
	default:
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: unknown kind %q (want %q or %q)", r.Kind, KindGamma, KindDataflow))
	}
	if r.Schedule == "" {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("wire: replay needs a schedule"))
	}
	return nil
}

// Encode marshals the envelope in the canonical indented form.
func (r ReplayRequest) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeReplayRequest unmarshals and validates a replay submission.
func DecodeReplayRequest(data []byte) (*ReplayRequest, error) {
	var r ReplayRequest
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("wire: %w", err))
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// WireDivergence is the wire mirror of a replay divergence report
// (internal/replay.Divergence): the first schedule step the replay could
// not reproduce, with the recorded-vs-reexecuted delta and the provenance
// ancestors of the divergent firing.
type WireDivergence struct {
	Step      int      `json:"step"`
	Seq       uint64   `json:"seq,omitempty"`
	Name      string   `json:"name"`
	Reason    string   `json:"reason"`
	Missing   []string `json:"missing,omitempty"`
	Expected  []string `json:"expected,omitempty"`
	Actual    []string `json:"actual,omitempty"`
	Ancestors []int    `json:"ancestors,omitempty"`
	Detail    string   `json:"detail,omitempty"`
}

// ReplayResponse is the result envelope of POST /v1/replay: either a
// confirmed replay (Divergence nil, Stable reporting whether the replayed
// state is a fixed point) or the divergence report.
type ReplayResponse struct {
	Version string `json:"version"`
	Kind    string `json:"kind"`
	// Steps counts the schedule steps replayed cleanly.
	Steps int `json:"steps"`
	// Stable reports whether the replayed final state admits no further
	// firing; false on divergence and on partial (e.g. canceled-run)
	// schedules.
	Stable bool `json:"stable"`
	// Multiset is a Gamma replay's final multiset literal (on divergence,
	// the state just before the divergent step).
	Multiset string `json:"multiset,omitempty"`
	// Outputs and Pending mirror the dataflow RunResult accounting for a
	// dataflow replay.
	Outputs map[string][]string `json:"outputs,omitempty"`
	Pending int                 `json:"pending,omitempty"`
	// Divergence is present when the replay stopped reproducing the record.
	Divergence *WireDivergence `json:"divergence,omitempty"`
	// Error is present on rejected or failed submissions.
	Error *WireError `json:"error,omitempty"`
}

// DecodeReplayResponse unmarshals a replay response with the same version
// rules as the run envelopes.
func DecodeReplayResponse(data []byte) (*ReplayResponse, error) {
	var r ReplayResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("wire: %w", err))
	}
	if err := CheckWireVersion(r.Version); err != nil {
		return nil, err
	}
	return &r, nil
}

// RunStats is the payload of GET /v1/runs/{id}/stats (wire minor 1.2): the
// run's execution accounting plus, when the run was traced, the recorder-side
// view of the same execution. Firings is the length of the run's recorded
// commit-ordered schedule, so on a traced run it must equal Steps exactly —
// the wire form of the paper's firing-history equivalence, and the
// cross-check the service test suite holds.
type RunStats struct {
	Version string `json:"version"`
	ID      string `json:"id"`
	State   string `json:"state"`
	Kind    string `json:"kind"`
	// Tenant and Engine are the run's label-dimension coordinates in the
	// service registry (the engine resolved from the spec, not the raw
	// Engine field, so EngineAuto reports what actually ran).
	Tenant string `json:"tenant,omitempty"`
	Engine string `json:"engine,omitempty"`
	// Traced reports whether the sampler recorded this run; the trace and
	// firing fields below are only meaningful when it did.
	Traced bool `json:"traced"`
	// Steps and WallMS mirror the RunResult accounting; QueueWaitMS is the
	// admission-to-start latency the wall time excludes.
	Steps       int64   `json:"steps"`
	WallMS      float64 `json:"wall_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// TraceEvents and TraceDropped size the retained event rings: events still
	// buffered and events the rings overwrote (telemetry.dropped_events).
	TraceEvents  int64 `json:"trace_events,omitempty"`
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// Firings is the recorded schedule's committed-firing count.
	Firings int64 `json:"firings,omitempty"`
	// Counters is the traced run's private registry snapshot (gamma.steps,
	// probe/conflict counts, ...) with its gauges' final values alongside
	// (dataflow.match_entries_peak, dataflow.queue_peak), absent on untraced
	// runs.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// DecodeRunStats unmarshals a stats payload with the same version rules as
// the run envelopes.
func DecodeRunStats(data []byte) (*RunStats, error) {
	var s RunStats
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("wire: %w", err))
	}
	if err := CheckWireVersion(s.Version); err != nil {
		return nil, err
	}
	return &s, nil
}
