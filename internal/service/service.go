// Package service is the networked, multi-tenant Gamma service behind
// cmd/gammad: it accepts Gamma programs and dataflow graphs over the
// versioned internal/schema wire format and multiplexes many concurrent runs
// over one shared bounded executor pool (each run executing on the
// work-stealing runtime of internal/gamma / internal/dataflow).
//
// The paper's Γ model is naturally a server: a stable state under Eq. 1 is a
// response. Each submission is an isolated process in the Kahn sense — its
// own multiset, its own context — scheduled over shared processing elements.
//
// # Admission control
//
// Three gates protect the pool, every rejection an HTTP 429 with Retry-After
// so well-behaved clients back off instead of hammering:
//
//   - a bounded pending queue (Config.QueueDepth) — global backpressure;
//   - a per-tenant in-flight cap (Quota.MaxConcurrent) — one tenant cannot
//     occupy the whole queue;
//   - a per-tenant cumulative step budget (Quota.StepBudget) — reaction
//     firings are the service's cost unit, and a tenant that has spent its
//     budget is rejected until the operator raises it.
//
// Every run additionally gets an effective per-run step cap (the spec's
// MaxSteps clamped to Quota.MaxSteps) and an optional wall-clock timeout, so
// a divergent program costs a bounded amount of pool time.
//
// Tenancy is by API key: the Authorization bearer token or X-API-Key header
// names the tenant; requests without one share the "anonymous" tenant.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// AnonymousTenant is the tenant identity of requests carrying no API key.
const AnonymousTenant = "anonymous"

// Quota bounds one tenant's use of the service. The zero value applies the
// server defaults (Config.Quota), whose own zero fields mean "unbounded
// concurrency, default per-run cap, unlimited cumulative budget".
type Quota struct {
	// MaxConcurrent caps the tenant's in-flight (pending + running) runs;
	// 0 means unbounded (the queue is still the global backstop).
	MaxConcurrent int
	// MaxSteps caps any single run's step budget; 0 applies
	// Config.MaxStepsCap. A submission asking for more is clamped, not
	// rejected.
	MaxSteps int64
	// StepBudget is the tenant's cumulative firing allowance across all its
	// runs (partial executions count); 0 means unlimited. An exhausted
	// budget rejects new submissions with 429.
	StepBudget int64
}

// Config configures a Server.
type Config struct {
	// Pool is the number of executor goroutines runs are multiplexed over;
	// <= 0 means 4. Each executor runs one submission at a time; a Gamma
	// submission itself may use several workers (RunSpec.Workers).
	Pool int
	// QueueDepth bounds the pending queue; <= 0 means 64. A full queue
	// rejects submissions with 429.
	QueueDepth int
	// Quota is the default per-tenant quota.
	Quota Quota
	// Tenants overrides the quota for specific API keys.
	Tenants map[string]Quota
	// MaxStepsCap is the per-run step cap applied when neither the spec nor
	// the tenant quota bounds the run; <= 0 means 10,000,000.
	MaxStepsCap int64
	// Retain is how many terminal runs are kept for polling before the
	// oldest are evicted; <= 0 means 1024.
	Retain int
	// MaxBody caps the request body in bytes; <= 0 means 1 MiB.
	MaxBody int64
	// Registry receives the service's counters, gauges and histograms; nil
	// allocates a private one. Share it with telemetry.ServeMetrics to
	// expose the pool on -metrics-addr. The service additionally accounts
	// every event into the registry's "tenant" and "engine" label dimensions
	// (Registry.Labeled), each rolling up to the global series exactly.
	Registry *telemetry.Registry
	// TraceEventCap is the per-track ring capacity of a traced run's
	// recorder; <= 0 means 4096. Together with Retain it bounds the trace
	// memory: at most Retain terminal runs hold rings at once.
	TraceEventCap int
	// TraceSample is the fraction of trace-requesting runs actually traced:
	// 0 means every one (the default), values in (0, 1) sample
	// deterministically (the i-th requesting run is traced iff the scaled
	// counter crosses an integer), negative disables tracing entirely. A
	// skipped run still completes normally with traced=false in its stats.
	TraceSample float64
	// Logger receives the service's structured log: one record per
	// admission, rejection and completion, each carrying the run id, tenant
	// and engine so records correlate with the trace and metrics surfaces.
	// nil discards.
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Pool <= 0 {
		c.Pool = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxStepsCap <= 0 {
		c.MaxStepsCap = 10_000_000
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.TraceEventCap <= 0 {
		c.TraceEventCap = 4096
	}
	switch {
	case c.TraceSample == 0:
		c.TraceSample = 1
	case c.TraceSample < 0:
		c.TraceSample = 0
	case c.TraceSample > 1:
		c.TraceSample = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// TooBusyError is the admission-control rejection: the service is saturated
// or the tenant is over quota. The HTTP layer renders it as 429 with the
// suggested Retry-After.
type TooBusyError struct {
	// Reason is one of "queue full", "concurrency quota", "step budget".
	Reason string
	// Tenant is the rejected tenant.
	Tenant string
	// RetryAfter is the suggested backoff.
	RetryAfter time.Duration
}

func (e *TooBusyError) Error() string {
	return fmt.Sprintf("service: tenant %s rejected: %s", e.Tenant, e.Reason)
}

// ErrUnknownRun reports a run id the server does not know (never submitted,
// or evicted after Config.Retain newer terminal runs).
var ErrUnknownRun = errors.New("service: unknown run id")

// ErrNotTraced reports a trace request for a run that was not traced: the
// submission did not set Spec.Trace, or the sampler skipped it. 404 on the
// wire — the stats endpoint's traced field tells the two apart.
var ErrNotTraced = errors.New("service: run was not traced")

// ErrRunActive reports a trace request for a run that has not reached a
// terminal state: the event rings are single-writer and only readable after
// the run returns. 409 on the wire; poll the run and retry.
var ErrRunActive = errors.New("service: run still executing; trace available at terminal state")

// ErrClosed reports a submission to a server that has been Closed.
var ErrClosed = errors.New("service: server closed")

// tenantState is one tenant's live accounting.
type tenantState struct {
	inflight  int
	stepsUsed int64
}

// Run is one submitted execution. Fields set at submission are immutable;
// the mutable outcome is guarded by mu.
type Run struct {
	// ID is the server-assigned identity ("r-1", "r-2", ...).
	ID string
	// Tenant is the API-key identity the run is accounted against.
	Tenant string
	// Kind is schema.KindGamma or schema.KindDataflow.
	Kind string
	// Spec is the submitted spec; MaxSteps holds the effective (clamped)
	// per-run cap.
	Spec schema.RunSpec
	// Engine is the resolved engine label ("seq" or "parallel"; a dataflow
	// run is always "seq") —
	// what actually runs, with EngineAuto resolved, and the run's coordinate
	// in the registry's engine dimension.
	Engine string
	// Traced reports whether the sampler granted this run's Spec.Trace ask;
	// when set, rec and sched observe the execution and are retained with
	// the terminal run for /trace and /stats.
	Traced bool

	plan  *gamma.Plan
	init  *multiset.Multiset
	graph *dataflow.Graph
	rec   *telemetry.Recorder
	sched *replay.Recorder

	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	done     chan struct{}

	mu        sync.Mutex
	state     string
	result    *schema.RunResult
	err       error
	queueWait time.Duration
}

// Done is closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Cancel asks the run to stop; pending runs are canceled immediately,
// running ones when their context check fires.
func (r *Run) Cancel() { r.cancel() }

// snapshot renders the run's current state as a response envelope.
func (r *Run) snapshot() *schema.RunResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &schema.RunResponse{
		Version: schema.WireVersion,
		ID:      r.ID,
		State:   r.state,
		Kind:    r.Kind,
		Tenant:  r.Tenant,
		Result:  r.result,
		Error:   schema.NewWireError(r.err),
	}
}

// Err returns the run's terminal error (nil while not failed/canceled).
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Server multiplexes Gamma and dataflow runs over a shared executor pool.
// Create with New, serve its Handler, and Close it to cancel everything.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	log *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Run
	wg         sync.WaitGroup
	nRunning   atomic.Int64
	traceSeq   atomic.Int64 // trace-requesting submissions, for the sampler

	mu       sync.Mutex
	closed   bool
	seq      int64
	runs     map[string]*Run
	terminal []string // terminal run ids in completion order, for eviction
	tenants  map[string]*tenantState

	gPending, gRunning *telemetry.Gauge
}

// count, observe and gaugeAdd account one event into the global registry
// and, when the run's label coordinates are known, into the tenant and
// engine children — three independent accountings per event, each child
// dimension summing to the global exactly (telemetry.Registry.CheckRollup;
// the service test suite and make stress hold the invariant under -race).
// The Set-based load gauges (service.pending, service.running) stay
// global-only; the occupancy gauges written through gaugeAdd
// (service.queue_depth, service.executors_busy) move by +1/-1 deltas, so
// their per-label values sum to the global at quiescence and CheckRollup
// covers them.
func (s *Server) count(name string, n int64, tenant, engine string) {
	s.reg.Counter(name).Add(n)
	if tenant != "" {
		s.reg.Labeled("tenant", tenant).Counter(name).Add(n)
	}
	if engine != "" {
		s.reg.Labeled("engine", engine).Counter(name).Add(n)
	}
}

func (s *Server) observe(name string, v int64, tenant, engine string) {
	s.reg.Histogram(name).Observe(v)
	if tenant != "" {
		s.reg.Labeled("tenant", tenant).Histogram(name).Observe(v)
	}
	if engine != "" {
		s.reg.Labeled("engine", engine).Histogram(name).Observe(v)
	}
}

func (s *Server) gaugeAdd(name string, n int64, tenant, engine string) {
	s.reg.Gauge(name).Add(n)
	if tenant != "" {
		s.reg.Labeled("tenant", tenant).Gauge(name).Add(n)
	}
	if engine != "" {
		s.reg.Labeled("engine", engine).Gauge(name).Add(n)
	}
}

// engineLabel resolves a spec to the engine that will actually execute it —
// the registry's engine dimension and the stats payload report this, not the
// raw Engine field, so EngineAuto Gamma runs are attributed to seq or
// parallel, and every dataflow run to seq (the dataflow runtime has one
// schedule: it runs a parallel or matrix spec on it).
func engineLabel(kind string, spec schema.RunSpec) string {
	switch {
	case kind == schema.KindDataflow:
		return schema.EngineSeq
	case spec.Engine != schema.EngineAuto:
		return spec.Engine
	case spec.EffectiveWorkers() > 1:
		return schema.EngineParallel
	}
	return schema.EngineSeq
}

// New starts a server: Config.Pool executor goroutines draining the pending
// queue. Close releases them.
func New(cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		log:        cfg.Logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Run, cfg.QueueDepth),
		runs:       make(map[string]*Run),
		tenants:    make(map[string]*tenantState),
	}
	s.gPending = s.reg.Gauge("service.pending")
	s.gRunning = s.reg.Gauge("service.running")
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Close stops the pool: running runs are canceled, queued ones marked
// canceled, and new submissions rejected with ErrClosed. Blocks until the
// executors have drained.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	// The executors are gone; whatever is still queued will never run.
	for {
		select {
		case r := <-s.queue:
			s.gaugeAdd("service.queue_depth", -1, r.Tenant, r.Engine)
			s.finish(r, nil, rt.ErrCanceled, 0, nil)
		default:
			return
		}
	}
}

// quotaFor resolves the tenant's quota, field by field, against the default.
func (s *Server) quotaFor(tenant string) Quota {
	q := s.cfg.Quota
	if o, ok := s.cfg.Tenants[tenant]; ok {
		if o.MaxConcurrent != 0 {
			q.MaxConcurrent = o.MaxConcurrent
		}
		if o.MaxSteps != 0 {
			q.MaxSteps = o.MaxSteps
		}
		if o.StepBudget != 0 {
			q.StepBudget = o.StepBudget
		}
	}
	return q
}

// Submit validates, parses and admits one run. The returned Run is already
// queued; watch Done or poll Lookup. Parse failures are rt.ErrParse /
// rt.ErrInvalid; admission failures are *TooBusyError.
func (s *Server) Submit(req *schema.RunRequest, tenant string) (*Run, error) {
	if tenant == "" {
		tenant = AnonymousTenant
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	r := &Run{Tenant: tenant, Kind: req.Kind, Spec: req.Spec, Engine: engineLabel(req.Kind, req.Spec),
		done: make(chan struct{}), state: schema.StatePending}
	switch req.Kind {
	case schema.KindGamma:
		f, err := gammalang.ParseFile(req.Program)
		if err != nil {
			return nil, err
		}
		init := f.Init
		if req.Init != "" {
			if init, err = multiset.Parse(req.Init); err != nil {
				return nil, rt.Mark(rt.ErrParse, err)
			}
		}
		if init == nil {
			init = multiset.New()
		}
		r.init = init
		if r.plan, err = f.Plan("run"); err != nil {
			return nil, rt.Mark(rt.ErrInvalid, err)
		}
	case schema.KindDataflow:
		g, err := dfir.Unmarshal(req.Graph)
		if err != nil {
			return nil, rt.Mark(rt.ErrParse, err)
		}
		r.graph = g
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	q := s.quotaFor(tenant)
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		s.tenants[tenant] = ts
	}
	if q.MaxConcurrent > 0 && ts.inflight >= q.MaxConcurrent {
		s.mu.Unlock()
		return nil, s.reject("service.rejected.concurrency",
			&TooBusyError{Reason: "concurrency quota", Tenant: tenant, RetryAfter: time.Second}, r)
	}
	if q.StepBudget > 0 && ts.stepsUsed >= q.StepBudget {
		s.mu.Unlock()
		return nil, s.reject("service.rejected.budget",
			&TooBusyError{Reason: "step budget", Tenant: tenant, RetryAfter: time.Minute}, r)
	}
	// Effective per-run cap: the spec's ask clamped to the tenant's per-run
	// cap (default Config.MaxStepsCap), and to what remains of a cumulative
	// budget — a run can never overdraw, it is truncated at the boundary
	// with rt.ErrMaxSteps like any other budget exhaustion.
	stepCap := q.MaxSteps
	if stepCap <= 0 {
		stepCap = s.cfg.MaxStepsCap
	}
	eff := r.Spec.MaxSteps
	if eff <= 0 || eff > stepCap {
		eff = stepCap
	}
	if q.StepBudget > 0 {
		if rem := q.StepBudget - ts.stepsUsed; rem < eff {
			eff = rem
		}
	}
	r.Spec.MaxSteps = eff

	s.seq++
	r.ID = fmt.Sprintf("r-%d", s.seq)
	r.ctx, r.cancel = context.WithCancel(s.baseCtx)
	r.enqueued = time.Now()
	// Submit is the queue's only sender and holds s.mu, so a free slot seen
	// here is still free at the send below.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return nil, s.reject("service.rejected.queue",
			&TooBusyError{Reason: "queue full", Tenant: tenant, RetryAfter: time.Second}, r)
	}
	// Tracing is decided at admission so the decision is stable for the
	// run's whole life — and before the send, which publishes the run to the
	// executors: Spec.Trace asks, the sampler grants. The recorder and
	// schedule recorder are private to the run (its stats counters are the
	// run's own, not the server's) and ride the Run into the terminal ring.
	if req.Spec.Trace && s.sampleTrace() {
		r.Traced = true
		r.rec = telemetry.New(s.cfg.TraceEventCap)
		// The schedule is the run's one firing record: every traced run is
		// replayable (GET /trace?format=schedule → POST /v1/replay), and the
		// provenance DAG and firing count are read off it on request.
		kind := replay.KindGamma
		if r.Kind == schema.KindDataflow {
			kind = replay.KindDataflow
		}
		r.sched = replay.NewRecorder(kind, r.ID)
	}
	s.queue <- r
	ts.inflight++
	s.runs[r.ID] = r
	s.mu.Unlock()

	s.count("service.submitted", 1, tenant, r.Engine)
	s.gaugeAdd("service.queue_depth", 1, tenant, r.Engine)
	s.gPending.Set(int64(len(s.queue)))
	s.log.Info("run admitted",
		"run", r.ID, "tenant", tenant, "kind", r.Kind, "engine", r.Engine,
		"traced", r.Traced, "max_steps", r.Spec.MaxSteps)
	return r, nil
}

// reject accounts and logs one admission rejection, returning busy.
func (s *Server) reject(counter string, busy *TooBusyError, r *Run) error {
	s.count(counter, 1, busy.Tenant, r.Engine)
	s.log.Warn("run rejected",
		"tenant", busy.Tenant, "kind", r.Kind, "engine", r.Engine,
		"reason", busy.Reason, "retry_after", busy.RetryAfter)
	return busy
}

// sampleTrace is the deterministic trace sampler: with rate p, the i-th
// trace-requesting submission is traced iff the scaled counter ⌊(i+1)p⌋
// crosses an integer — exactly ⌊np⌋ of the first n requesters, no RNG.
func (s *Server) sampleTrace() bool {
	p := s.cfg.TraceSample
	if p <= 0 {
		return false
	}
	i := s.traceSeq.Add(1) - 1
	return int64(float64(i+1)*p) > int64(float64(i)*p)
}

// Lookup returns a run by id.
func (s *Server) Lookup(id string) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, ErrUnknownRun
	}
	return r, nil
}

// Cancel cancels a run by id and returns it.
func (s *Server) Cancel(id string) (*Run, error) {
	r, err := s.Lookup(id)
	if err != nil {
		return nil, err
	}
	r.Cancel()
	return r, nil
}

// executor is one pool worker: it drains the pending queue until Close.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case r := <-s.queue:
			s.execute(r)
		}
	}
}

// execute runs one submission to its terminal state.
func (s *Server) execute(r *Run) {
	s.gaugeAdd("service.queue_depth", -1, r.Tenant, r.Engine)
	s.gPending.Set(int64(len(s.queue)))
	wait := time.Since(r.enqueued)
	s.observe("service.queue_wait_ns", wait.Nanoseconds(), r.Tenant, r.Engine)

	// A cancellation that arrived while pending wins before any work.
	if r.ctx.Err() != nil {
		s.finish(r, nil, rt.ErrCanceled, 0, nil)
		return
	}
	r.mu.Lock()
	r.state = schema.StateRunning
	r.queueWait = wait
	r.mu.Unlock()
	s.gaugeAdd("service.executors_busy", 1, r.Tenant, r.Engine)
	s.gRunning.Set(s.nRunning.Add(1))
	defer func() {
		s.gRunning.Set(s.nRunning.Add(-1))
		s.gaugeAdd("service.executors_busy", -1, r.Tenant, r.Engine)
	}()

	ctx, cancel := r.Spec.Context(r.ctx)
	defer cancel()

	start := time.Now()
	switch r.Kind {
	case schema.KindGamma:
		opt := gamma.Options{
			Workers:  r.Spec.EffectiveWorkers(),
			Seed:     r.Spec.Seed,
			MaxSteps: r.Spec.MaxSteps,
		}
		if r.Traced {
			opt.Recorder = r.rec
			opt.Schedule = r.sched
		}
		st, err := r.plan.RunContext(ctx, r.init, opt)
		wall := time.Since(start)
		res := &schema.RunResult{Multiset: r.init.String(), WallMS: float64(wall.Nanoseconds()) / 1e6}
		var steps int64
		if st != nil {
			steps = st.Steps
			res.Steps = st.Steps
		}
		s.finish(r, res, err, steps, &wall)
	case schema.KindDataflow:
		opt := dataflow.Options{MaxFirings: r.Spec.MaxSteps}
		if r.Traced {
			opt.Recorder = r.rec
			opt.Schedule = r.sched
		}
		dres, err := dataflow.RunContext(ctx, r.graph, opt)
		wall := time.Since(start)
		res := &schema.RunResult{WallMS: float64(wall.Nanoseconds()) / 1e6}
		var steps int64
		if dres != nil {
			steps = dres.Firings
			res.Steps = dres.Firings
			res.Outputs = make(map[string][]string, len(dres.Outputs))
			for label, series := range dres.Outputs {
				out := make([]string, len(series))
				for i, tv := range series {
					out[i] = fmt.Sprintf("%s@%d", tv.Val, tv.Tag)
				}
				res.Outputs[label] = out
			}
		}
		s.finish(r, res, err, steps, &wall)
	}
}

// finish moves a run to its terminal state and settles the accounting: the
// tenant's in-flight slot is released, the steps actually executed (partial
// runs included) are charged against its budget, and the terminal-run ring
// evicts past Config.Retain.
func (s *Server) finish(r *Run, res *schema.RunResult, err error, steps int64, wall *time.Duration) {
	state := schema.StateDone
	switch {
	case err == nil:
	case errors.Is(err, rt.ErrCanceled):
		state = schema.StateCanceled
	default:
		state = schema.StateFailed
	}

	r.mu.Lock()
	r.state = state
	r.result = res
	r.err = err
	r.mu.Unlock()

	switch state {
	case schema.StateDone:
		s.count("service.done", 1, r.Tenant, r.Engine)
	case schema.StateCanceled:
		s.count("service.canceled", 1, r.Tenant, r.Engine)
	default:
		s.count("service.failed", 1, r.Tenant, r.Engine)
	}
	if steps > 0 {
		s.count("service.steps", steps, r.Tenant, r.Engine)
		s.observe("service.run_steps", steps, r.Tenant, r.Engine)
	}
	if wall != nil {
		s.observe("service.run_wall_ns", wall.Nanoseconds(), r.Tenant, r.Engine)
	}

	attrs := []any{
		"run", r.ID, "tenant", r.Tenant, "kind", r.Kind, "engine", r.Engine,
		"state", state, "steps", steps, "traced", r.Traced,
	}
	if wall != nil {
		attrs = append(attrs, "wall_ms", float64(wall.Nanoseconds())/1e6)
	}
	switch state {
	case schema.StateFailed:
		// rt.ErrNode wraps reaction/vertex panics the runtimes recovered;
		// logging it here is the service's panic path.
		s.log.Error("run failed", append(attrs, "error", err)...)
	case schema.StateCanceled:
		s.log.Info("run canceled", append(attrs, "error", err)...)
	default:
		s.log.Info("run finished", attrs...)
	}

	s.mu.Lock()
	if ts := s.tenants[r.Tenant]; ts != nil {
		ts.inflight--
		ts.stepsUsed += steps
	}
	s.terminal = append(s.terminal, r.ID)
	for len(s.terminal) > s.cfg.Retain {
		delete(s.runs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.mu.Unlock()
	r.cancel() // release the context resources either way
	// Waiters are released only now, with the charge settled: a tenant that
	// resubmits the moment it sees the result meets its updated budget.
	close(r.done)
}

// Health reports the server's instantaneous load.
func (s *Server) Health() *schema.Health {
	status := "ok"
	s.mu.Lock()
	if s.closed {
		status = "closed"
	}
	s.mu.Unlock()
	return &schema.Health{
		Version:    schema.WireVersion,
		Status:     status,
		Pool:       s.cfg.Pool,
		QueueDepth: s.cfg.QueueDepth,
		Pending:    len(s.queue),
		Running:    int(s.nRunning.Load()),
		Completed: s.reg.CounterValue("service.done") +
			s.reg.CounterValue("service.failed") +
			s.reg.CounterValue("service.canceled"),
	}
}

// terminalSnapshot returns the run's terminal state, result and queue wait,
// or ErrRunActive while the run is still pending/running. The trace surfaces
// gate on this: the recorder's rings are single-writer and must not be read
// concurrently with the engine.
func (r *Run) terminalSnapshot() (state string, res *schema.RunResult, wait time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !schema.TerminalState(r.state) {
		return "", nil, 0, ErrRunActive
	}
	return r.state, r.result, r.queueWait, nil
}

// Stats renders a terminal run's execution accounting as the wire RunStats
// payload: the response-envelope numbers plus, when the run was traced, the
// recorder-side view (buffered events, drops, the private registry's
// counters) and the recorded schedule's firing count. On a traced run
// Firings equals Steps exactly — the firing-history equivalence on the wire.
func (s *Server) Stats(id string) (*schema.RunStats, error) {
	r, err := s.Lookup(id)
	if err != nil {
		return nil, err
	}
	state, res, wait, err := r.terminalSnapshot()
	if err != nil {
		return nil, err
	}
	st := &schema.RunStats{
		Version:     schema.WireVersion,
		ID:          r.ID,
		State:       state,
		Kind:        r.Kind,
		Tenant:      r.Tenant,
		Engine:      r.Engine,
		Traced:      r.Traced,
		QueueWaitMS: float64(wait.Nanoseconds()) / 1e6,
	}
	if res != nil {
		st.Steps = res.Steps
		st.WallMS = res.WallMS
	}
	if r.Traced {
		st.Firings = int64(r.sched.Len())
		for _, te := range r.rec.Snapshot() {
			st.TraceEvents += int64(len(te.Events))
			st.TraceDropped += te.Dropped
		}
		snap := r.rec.Metrics.Snapshot()
		st.Counters = snap.Counters
		// Gauges ride in the same map by their last value: a terminal run's
		// are its run-end figures (dataflow.match_entries_peak, queue_peak).
		for name, g := range snap.Gauges {
			st.Counters[name] = g.Value
		}
	}
	return st, nil
}

// WriteTrace renders a terminal run's retained trace in the given format:
// FormatPerfetto and FormatJSONL export the event rings, FormatSchedule the
// executable schedule (wire minor 1.3) a client can POST back to /v1/replay,
// FormatDOT the firing-provenance DAG folded from that schedule. ErrNotTraced when the run was
// not traced, ErrRunActive before the terminal state.
func (s *Server) WriteTrace(w io.Writer, id string, format telemetry.Format) error {
	r, err := s.Lookup(id)
	if err != nil {
		return err
	}
	if _, _, _, err := r.terminalSnapshot(); err != nil {
		return err
	}
	if !r.Traced {
		return ErrNotTraced
	}
	switch format {
	case telemetry.FormatDOT:
		prov := telemetry.NewProvenance()
		r.sched.Schedule().Each(prov.RecordFiring)
		return prov.WriteDOT(w)
	case telemetry.FormatJSONL:
		return telemetry.WriteJSONL(w, r.rec)
	case telemetry.FormatSchedule:
		return r.sched.Schedule().Encode(w)
	default:
		return telemetry.WritePerfetto(w, r.rec)
	}
}

// wireDivergence converts a replay divergence report to its wire mirror.
func wireDivergence(d *replay.Divergence) *schema.WireDivergence {
	if d == nil {
		return nil
	}
	return &schema.WireDivergence{
		Step: d.Step, Seq: d.Seq, Name: d.Name, Reason: d.Reason,
		Missing: d.Missing, Expected: d.Expected, Actual: d.Actual,
		Ancestors: d.Ancestors, Detail: d.Detail,
	}
}

// Replay re-executes a recorded schedule against the submitted program and
// initial state (POST /v1/replay, wire minor 1.3). The replay runs
// synchronously on the caller's goroutine — its cost is bounded by the
// schedule length, which MaxBody already caps — and does not occupy an
// executor slot or a run id. The response carries either the confirmed
// stable state or the divergence report; only unusable submissions (parse
// and validation failures) return an error.
func (s *Server) Replay(req *schema.ReplayRequest, tenant string) (*schema.ReplayResponse, error) {
	if tenant == "" {
		tenant = AnonymousTenant
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sched, err := replay.Parse(strings.NewReader(req.Schedule))
	if err != nil {
		return nil, err
	}
	resp := &schema.ReplayResponse{Version: schema.WireVersion, Kind: req.Kind}
	switch req.Kind {
	case schema.KindGamma:
		f, err := gammalang.ParseFile(req.Program)
		if err != nil {
			return nil, err
		}
		init := f.Init
		if req.Init != "" {
			if init, err = multiset.Parse(req.Init); err != nil {
				return nil, rt.Mark(rt.ErrParse, err)
			}
		}
		if init == nil {
			init = multiset.New()
		}
		plan, err := f.Plan("replay")
		if err != nil {
			return nil, rt.Mark(rt.ErrInvalid, err)
		}
		// A staged plan replays against the union of its stages' reactions
		// (names are the schedule's identifiers and the recorded order
		// already respects stage boundaries); ReplayGamma checks stability
		// against the union, which at the recorded final state coincides
		// with the last stage's stability for the programs the service runs.
		var reactions []*gamma.Reaction
		for _, stage := range plan.Stages {
			reactions = append(reactions, stage.Reactions...)
		}
		prog, err := gamma.NewProgram("replay", reactions...)
		if err != nil {
			return nil, rt.Mark(rt.ErrInvalid, err)
		}
		res, err := replay.ReplayGamma(prog, init, sched)
		if err != nil {
			return nil, err
		}
		resp.Steps = res.Steps
		resp.Stable = res.Stable
		resp.Multiset = res.Final.String()
		resp.Divergence = wireDivergence(res.Divergence)
	case schema.KindDataflow:
		g, err := dfir.Unmarshal(req.Graph)
		if err != nil {
			return nil, rt.Mark(rt.ErrParse, err)
		}
		res, err := replay.ReplayDataflow(g, sched)
		if err != nil {
			return nil, err
		}
		resp.Steps = res.Steps
		resp.Stable = res.Stable
		resp.Pending = res.Pending
		resp.Outputs = make(map[string][]string, len(res.Outputs))
		for label, series := range res.Outputs {
			out := make([]string, len(series))
			for i, tv := range series {
				out[i] = fmt.Sprintf("%s@%d", tv.Val, tv.Tag)
			}
			resp.Outputs[label] = out
		}
		resp.Divergence = wireDivergence(res.Divergence)
	}
	s.count("service.replays", 1, tenant, "")
	if resp.Divergence != nil {
		s.count("service.replays.diverged", 1, tenant, "")
	}
	s.log.Info("replay executed",
		"tenant", tenant, "kind", req.Kind, "steps", resp.Steps,
		"stable", resp.Stable, "diverged", resp.Divergence != nil)
	return resp, nil
}

// Registry exposes the server's telemetry registry (for -metrics-addr).
func (s *Server) Registry() *telemetry.Registry { return s.reg }
