// Package service is the networked, multi-tenant Gamma service behind
// cmd/gammad: it accepts Gamma programs and dataflow graphs over the
// versioned internal/schema wire format and multiplexes many concurrent runs
// over one shared bounded executor pool (each run executing on the engines
// of internal/gamma / internal/dataflow through the run pipeline of
// internal/schema).
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
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// allocates a private one. Share it with telemetry.MetricsMux to
	// expose the pool on gammad -metrics-addr. The service additionally accounts
	// every event into the registry's "tenant" and "engine" label dimensions
	// (Registry.Labeled), each rolling up to the global series exactly.
	Registry *telemetry.Registry
	// TraceSample is the fraction of trace-requesting runs actually traced:
	// 0 means every one (the default), values in (0, 1) sample
	// deterministically (the i-th requesting run is traced iff the scaled
	// counter crosses an integer), negative disables tracing entirely. A
	// skipped run still completes normally with traced=false in its stats.
	TraceSample float64
	// Logger receives the service's structured log: one record per
	// admission, rejection and completion, each carrying the run id, tenant
	// and engine so records correlate with the trace and metrics surfaces.
	// nil discards, without rendering the records first.
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
	switch {
	case c.TraceSample == 0:
		c.TraceSample = 1
	case c.TraceSample < 0:
		c.TraceSample = 0
	case c.TraceSample > 1:
		c.TraceSample = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
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
// terminal state: its schedule and metrics are complete only once the run
// returns. 409 on the wire; poll the run and retry.
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
	// when set, sched records the execution and is retained with the
	// terminal run for /trace, and reg holds the run-end fold of it for
	// /stats.
	Traced bool

	job   *schema.Job
	sched *replay.Recorder
	reg   *telemetry.Registry

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
	reserved int // queue places held by submissions loading their program
	seq      int64
	runs     map[string]*Run
	terminal []string // terminal run ids in completion order, for eviction
	tenants  map[string]*tenantState
	plans    planCache
}

// count, observe and gaugeAdd account one event into the global registry
// and, when the run's label coordinates are known, into the tenant and
// engine children — three independent accountings per event, each child
// dimension summing to the global exactly (telemetry.Registry.CheckRollup;
// the service test suite and make stress hold the invariant under -race).
// The occupancy gauges written through gaugeAdd (service.queue_depth,
// service.executors_busy) move by +1/-1 deltas, so their per-label values
// sum to the global at quiescence and CheckRollup covers them.
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
		plans:      planCache{jobs: make(map[planKey]*schema.Job)},
	}
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

// Submit validates, admits and parses one run. The returned Run is already
// queued; watch Done or poll Lookup. Admission comes first, so a refused
// request never loads its program: admission failures are *TooBusyError,
// then parse failures rt.ErrParse / rt.ErrInvalid.
func (s *Server) Submit(req *schema.RunRequest, tenant string) (*Run, error) {
	if tenant == "" {
		tenant = AnonymousTenant
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	r := &Run{Tenant: tenant, Kind: req.Kind, Spec: req.Spec, Engine: req.Spec.EngineLabel(req.Kind),
		done: make(chan struct{}), state: schema.StatePending}

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
	// Submit is the queue's only sender and counts the places it reserved,
	// so a place reserved here is still free at the send below.
	if len(s.queue)+s.reserved == cap(s.queue) {
		s.mu.Unlock()
		return nil, s.reject("service.rejected.queue",
			&TooBusyError{Reason: "queue full", Tenant: tenant, RetryAfter: time.Second}, r)
	}
	s.reserved++
	ts.inflight++
	s.mu.Unlock()

	// The program loads outside the lock, in the slot reserved above; a
	// failed load, or a Close meanwhile, gives the slot back.
	job, err := s.load(tenant, req.Kind, "run", req.Program, req.Init, req.Graph)
	s.mu.Lock()
	s.reserved--
	if err == nil && s.closed {
		err = ErrClosed
	}
	if err != nil {
		ts.inflight--
		s.mu.Unlock()
		return nil, err
	}
	r.job = job
	s.seq++
	r.ID = fmt.Sprintf("r-%d", s.seq)
	r.ctx, r.cancel = context.WithCancel(s.baseCtx)
	r.enqueued = time.Now()
	// Tracing is decided at admission so the decision is stable for the
	// run's whole life — and before the send, which publishes the run to the
	// executors: Spec.Trace asks, the sampler grants. The schedule recorder
	// is private to the run and rides the Run into the terminal ring.
	if req.Spec.Trace && s.sampleTrace() {
		r.Traced = true
		// The schedule is the run's one firing record: every traced run is
		// replayable (GET /trace?format=schedule → POST /v1/replay), and its
		// timeline, provenance DAG and run metrics are folds over it.
		kind := replay.KindGamma
		if r.Kind == schema.KindDataflow {
			kind = replay.KindDataflow
		}
		r.sched = replay.NewRecorder(kind, r.ID)
	}
	s.queue <- r
	s.runs[r.ID] = r
	s.mu.Unlock()

	s.count("service.submitted", 1, tenant, r.Engine)
	s.gaugeAdd("service.queue_depth", 1, tenant, r.Engine)
	if s.log.Enabled(context.Background(), slog.LevelInfo) {
		s.log.Info("run admitted",
			"run", r.ID, "tenant", tenant, "kind", r.Kind, "engine", r.Engine,
			"traced", r.Traced, "max_steps", r.Spec.MaxSteps)
	}
	return r, nil
}

// The plan cache's bounds: entries, and program source bytes summed over
// them (MaxBody's default). The oldest entry is evicted first.
const (
	planCacheEntries = 64
	planCacheBytes   = 1 << 20
)

// planCache holds what schema.LoadGamma made of a program — its plan, whose
// kernels and subscription index are built once, its reactions, and its
// source's initial multiset, which no run receives — keyed by the tenant that
// sent it and its full source: a plan is shared among one tenant's runs only.
type planCache struct {
	mu    sync.Mutex
	jobs  map[planKey]*schema.Job
	order []planKey // insertion order, oldest first
	bytes int
}

type planKey struct{ tenant, program string }

// get returns the loaded program of key and whether it was cached. A miss
// loads it, and caches it unless the load failed. Every stage is named
// "run.N", a submission's and a replay's alike, so one plan serves both.
func (c *planCache) get(key planKey) (*schema.Job, bool, error) {
	c.mu.Lock()
	job, ok := c.jobs[key]
	c.mu.Unlock()
	if ok {
		return job, true, nil
	}
	job, err := schema.LoadGamma("run", key.program, "")
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.jobs[key]; ok { // a concurrent miss cached it first
		return prior, false, nil
	}
	c.jobs[key], c.order, c.bytes = job, append(c.order, key), c.bytes+len(key.program)
	for len(c.order) > planCacheEntries || c.bytes > planCacheBytes {
		old := c.order[0] // cleared below, so the dead slot keeps no source alive
		c.order[0], c.order, c.bytes = planKey{}, c.order[1:], c.bytes-len(old.program)
		delete(c.jobs, old)
	}
	return job, false, nil
}

// load parses a submission's payload through the run pipeline's loader, a Γ
// program through the plan cache, and binds its init as schema.LoadGamma
// does: only the initial multiset is built per request, {} when neither the
// request nor the source declares one.
func (s *Server) load(tenant, kind, name, program, init, graph string) (*schema.Job, error) {
	if kind == schema.KindDataflow {
		return schema.LoadGraph(name, graph, false)
	}
	src, hit, err := s.plans.get(planKey{tenant, program})
	if hit {
		s.count("service.plan_cache.hits", 1, tenant, "")
	} else {
		s.count("service.plan_cache.misses", 1, tenant, "")
	}
	// schema.LoadGamma's order of errors: the program's syntax, then the
	// override, then the composition (rt.ErrInvalid).
	if err != nil && !errors.Is(err, rt.ErrInvalid) {
		return nil, err
	}
	var own *multiset.Multiset
	if err == nil {
		own = src.Init
	}
	m, ierr := schema.BindInit(init, own)
	switch {
	case ierr != nil:
		return nil, ierr
	case err != nil:
		return nil, err
	case m == nil:
		m = multiset.New()
	case m == own:
		m = own.Clone() // a run rewrites its Init; the cached one stays pristine
	}
	return &schema.Job{Name: name, Plan: src.Plan, Reactions: src.Reactions, Init: m}, nil
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
	s.nRunning.Add(1)
	defer func() {
		s.nRunning.Add(-1)
		s.gaugeAdd("service.executors_busy", -1, r.Tenant, r.Engine)
	}()

	ctx, cancel := r.Spec.Context(r.ctx)
	defer cancel()

	gopt, dopt := r.Spec.Lower(r.sched, nil) // sched is nil unless traced
	out, err := r.job.Run(ctx, gopt, dopt)
	if r.Traced {
		r.reg = out.Metrics(r.sched.Schedule())
	}
	res := out.Result()
	s.finish(r, res, err, res.Steps, &out.Wall)
}

// finish moves a run to its terminal state and settles the accounting: the
// tenant's in-flight slot is released, the steps actually executed (partial
// runs included) are charged against its budget, and the terminal-run ring
// evicts past Config.Retain.
func (s *Server) finish(r *Run, res *schema.RunResult, err error, steps int64, wall *time.Duration) {
	// rt.ErrNode wraps reaction/vertex panics the runtimes recovered; logging
	// a failure here is the service's panic path.
	state, counter, level, msg := schema.StateDone, "service.done", slog.LevelInfo, "run finished"
	switch {
	case err == nil:
	case errors.Is(err, rt.ErrCanceled):
		state, counter, msg = schema.StateCanceled, "service.canceled", "run canceled"
	default:
		state, counter, level, msg = schema.StateFailed, "service.failed", slog.LevelError, "run failed"
	}

	r.mu.Lock()
	r.state = state
	r.result = res
	r.err = err
	r.mu.Unlock()

	s.count(counter, 1, r.Tenant, r.Engine)
	if steps > 0 {
		s.count("service.steps", steps, r.Tenant, r.Engine)
		s.observe("service.run_steps", steps, r.Tenant, r.Engine)
	}
	if wall != nil {
		s.observe("service.run_wall_ns", wall.Nanoseconds(), r.Tenant, r.Engine)
	}

	if ctx := context.Background(); s.log.Enabled(ctx, level) {
		attrs := []any{
			"run", r.ID, "tenant", r.Tenant, "kind", r.Kind, "engine", r.Engine,
			"state", state, "steps", steps, "traced", r.Traced,
		}
		if wall != nil {
			attrs = append(attrs, "wall_ms", float64(wall.Nanoseconds())/1e6)
		}
		if err != nil {
			attrs = append(attrs, "error", err)
		}
		s.log.Log(ctx, level, msg, attrs...)
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
// gate on this: a run's schedule and metrics are complete only once it
// stopped.
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
// recorded schedule's firing count and the run-end fold's registry. On a
// traced run Firings equals Steps exactly — the firing-history equivalence
// on the wire.
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
		// The trace is the schedule's timeline: one event per recorded
		// firing, none dropped.
		st.Firings = int64(r.sched.Len())
		st.TraceEvents = st.Firings
	}
	if r.reg != nil { // a traced run the engine started
		snap := r.reg.Snapshot()
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
// FormatSchedule is the executable schedule (wire minor 1.3) a client can
// POST back to /v1/replay, and FormatPerfetto, FormatJSONL and FormatDOT are
// folds over it — its timeline and its firing-provenance DAG. ErrNotTraced when the run was
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
	return r.sched.Schedule().WriteTrace(w, format)
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
	job, err := s.load(tenant, req.Kind, "replay", req.Program, req.Init, req.Graph)
	if err != nil {
		return nil, err
	}
	rep, err := job.Replay(strings.NewReader(req.Schedule))
	if err != nil {
		return nil, err
	}
	resp := rep.Response()
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
