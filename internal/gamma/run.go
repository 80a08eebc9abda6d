package gamma

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/symtab"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// ErrMaxSteps is returned when execution exceeds Options.MaxSteps reaction
// firings. Gamma programs need not terminate; the limit turns a diverging
// program into a reported error instead of a hang. It wraps rt.ErrMaxSteps,
// the cross-runtime budget class; errors from RunContext additionally satisfy
// errors.Is against rt.ErrCanceled / rt.ErrDeadline (and thus against
// context.Canceled / context.DeadlineExceeded) when the context stopped the
// run. See package rt for the full taxonomy.
var ErrMaxSteps = rt.Wrap("gamma: maximum step count exceeded", rt.ErrMaxSteps)

// ScheduleRecorder is the engines' one per-firing observer: it receives every
// committed reaction firing with its commit sequence number and the raw
// tuples it consumed (in pattern order, which is what lets replay re-match
// them positionally) and produced. Sequence numbers are drawn inside the
// multiset's commit critical sections, so sorting the records by seq yields a
// sequential firing order that is a valid linearization even of a
// nondeterministic parallel run; provenance, work/span profiles and replay
// are all folds over that order (package replay). With Workers > 1 calls
// arrive after the commit's locks are released, concurrently and out of seq
// order, so implementations must be safe for concurrent use; the sequential
// engine calls from inside its write session, every shard locked, so an
// implementation must not touch the multiset being run, not even to read it.
// The tuples are only borrowed for the call: implementations extract what
// they need before returning (replay.Recorder fingerprints them into one byte
// buffer, so recording allocates nothing per firing).
type ScheduleRecorder interface {
	RecordStepTuples(seq uint64, name string, consumed, produced []multiset.Tuple)
}

// Options configures an execution.
type Options struct {
	// Workers is the number of concurrent reaction executors. 0 or 1 selects
	// the deterministic sequential interpreter; larger values select the
	// nondeterministic parallel runtime.
	Workers int
	// Seed seeds the nondeterministic candidate selection. Sequential runs
	// with Seed 0 are fully deterministic; parallel runs use Seed to derive
	// per-worker streams.
	Seed int64
	// MaxSteps bounds the total number of reaction firings; 0 means no bound.
	MaxSteps int64
	// FullScan selects the seed engine's wake policy: after a commit every
	// reaction is marked runnable again, instead of only those subscribed to
	// a label the commit added (schedule.go). Matching and committing are
	// unchanged, and so is the stable state reached; the flag exists as the
	// scheduler reference the incremental policy is compared with in tests
	// (TestWakePolicyScaling).
	FullScan bool
	// FaultInjector, when set, runs before every reaction application with
	// the reaction name and worker index; a non-nil return aborts the run
	// with that error, and a panic inside it exercises the worker pool's
	// panic recovery. For stress tests; leave nil in production runs.
	FaultInjector rt.FaultInjector
	// Recorder, when set, receives the execution's telemetry: per-worker
	// event tracks (firing spans with latency, commit conflicts, retries)
	// and registry counters/gauges/histograms mirroring Stats increment for
	// increment. Nil costs one branch per record site on the hot paths.
	Recorder *telemetry.Recorder
	// Schedule, when set, receives every committed firing (see
	// ScheduleRecorder). Nil costs one branch per commit.
	Schedule ScheduleRecorder
}

// Stats reports what an execution did.
type Stats struct {
	// Steps is the total number of reaction firings.
	Steps int64
	// Fired counts firings per reaction name.
	Fired map[string]int64
	// Probes counts reaction match searches (FindMatch attempts) — the
	// matching engine's work metric. The incremental scheduler's win shows
	// up as fewer probes for the same Steps, because provably disabled
	// reactions are never re-probed.
	Probes int64
	// Candidates counts the elements the matcher enumerated inside those
	// probes — every candidate handed to the match callback, at every pattern
	// nesting level. Probes says how often the matcher ran; Candidates says how
	// much it scanned, so Candidates/Steps growing with the multiset is a
	// matcher whose cost is not local to the molecules it consumes.
	Candidates int64
	// Conflicts counts failed optimistic commits (parallel runtime only):
	// a worker matched a set of molecules that a concurrent worker consumed
	// before the commit.
	Conflicts int64
	// Retries counts conflict rematches: failed commits that were retried in
	// place (with capped exponential backoff) rather than abandoned to the
	// scheduler. Conflicts - Retries is therefore the number of give-ups.
	Retries int64
	// Steals counts reaction indexes taken from another worker's deque
	// (parallel runtime only): work-stealing load balancing events.
	Steals int64
	// Batches counts committed ApplyDeltas batches (parallel runtime only).
	// Steps / Batches is the average firings per commit; at 1.0 batching
	// found no independent co-enabled firings.
	Batches int64
	// BackoffWaits counts timed conflict backoffs: retries that slept (with
	// cancellation observed) rather than just yielding the processor.
	BackoffWaits int64
	// ArenaBytes is the multiset storage work the run caused: arena chunk
	// bytes carved (Multiset.ArenaBytes, after minus before).
	ArenaBytes int64
	// Workers echoes the worker count used.
	Workers int
}

func newStats(workers int) *Stats {
	return &Stats{Fired: make(map[string]int64), Workers: workers}
}

func (s *Stats) merge(o *Stats) {
	s.Steps += o.Steps
	s.Probes += o.Probes
	s.Candidates += o.Candidates
	s.Conflicts += o.Conflicts
	s.Retries += o.Retries
	s.Steals += o.Steals
	s.Batches += o.Batches
	s.BackoffWaits += o.BackoffWaits
	s.ArenaBytes += o.ArenaBytes
	for k, v := range o.Fired {
		s.Fired[k] += v
	}
}

// Run executes p on m until the stable state of Eq. 1 is reached: no reaction
// condition holds for any combination of multiset elements. The multiset is
// modified in place and holds the result on return. Execution follows
// Options: sequential deterministic or parallel nondeterministic.
//
// Run is RunContext with context.Background(): no deadline, no cancellation.
func Run(p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	return RunContext(context.Background(), p, m, opt)
}

// RunContext is Run under a context: the deadline and cancellation of ctx
// propagate to every worker, which observe ctx between reaction firings and
// stop at the next commit boundary. The multiset is always left in a
// consistent intermediate state (a prefix of some valid firing sequence).
//
// Early exits of every kind — cancellation, deadline, step budget, a failing
// action, a recovered panic — return non-nil partial Stats describing the
// work done up to the stop, alongside the classifying error: rt.ErrCanceled
// or rt.ErrDeadline (which also satisfy errors.Is against context.Canceled /
// context.DeadlineExceeded), ErrMaxSteps, or *rt.PanicError.
func RunContext(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	before := m.ArenaBytes()
	st, err := runContext(ctx, p, m, opt)
	st.ArenaBytes = m.ArenaBytes() - before
	if opt.Recorder != nil {
		opt.Recorder.Metrics.Counter("gamma.arena_bytes").Add(st.ArenaBytes)
	}
	return st, err
}

// runContext is RunContext without the storage accounting, which sits in a
// frame of its own on purpose: the matcher below copies 48-byte values through
// the stack, and Eq. 2 min runs ~8 % slower when the frames between Run and
// the matcher shift it by 16–48 bytes modulo a cache line (bisected on the
// gamma_min benchmark, CHANGES.md PR 14). Re-measure gamma_min after changing
// a frame on this chain.
func runContext(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	for _, r := range p.Reactions {
		if err := r.Validate(); err != nil {
			return newStats(workers), rt.Mark(rt.ErrInvalid, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return newStats(workers), rt.FromContext(err)
	}
	if workers == 1 {
		return runSequential(ctx, p, m, opt)
	}
	return runParallel(ctx, p, m, opt)
}

// worker is one executor's state for the length of a run. The sequential
// interpreter is a single worker draining a dirty worklist; the parallel
// runtime is a pool of them coordinated by sh. Everything fixed for the run
// lives in the receiver, so the hot functions take only what varies per call.
type worker struct {
	ctx   context.Context
	p     *Program
	m     *multiset.Multiset
	opt   Options
	stats *Stats
	rng   *rand.Rand // nil selects the deterministic sequential matcher
	ts    *telSink
	id    int

	// Sequential worklist: dirty[i] marks reaction i for (re)probing and
	// remaining counts the marks. Pool workers use sh's deques instead.
	dirty     []bool
	remaining int

	// Per reaction index: the worker's searcher scratch and its firing count,
	// folded into stats.Fired by foldFired at exit. All of them enumerate through
	// view: the pool's read session per probe batch, runSequential's write one.
	searchers []*searcher
	fired     []int64
	view      multiset.View

	sh *stealSched // pool coordination; nil in the sequential interpreter
	batchWorker
}

func newWorker(ctx context.Context, p *Program, m *multiset.Multiset, opt Options, id int) *worker {
	w := &worker{ctx: ctx, p: p, m: m, opt: opt, id: id, stats: newStats(max(opt.Workers, 1)),
		fired: make([]int64, len(p.Reactions))}
	for _, r := range p.Reactions {
		w.searchers = append(w.searchers, newSearcher(r, &w.view))
	}
	return w
}

func (w *worker) foldFired() {
	for idx, k := range w.fired {
		if k > 0 {
			w.stats.Fired[w.p.Reactions[idx].Name] += k
		}
	}
}

// wake marks reaction j runnable — dirty on the sequential worklist, queued
// on this worker's own deque in the pool — and reports whether the mark is
// new.
func (w *worker) wake(j int) bool {
	if w.sh != nil {
		return w.sh.enqueue(w.id, j)
	}
	if w.dirty[j] {
		return false
	}
	w.dirty[j] = true
	w.remaining++
	return true
}

// committed is the bookkeeping every engine does once k firings of reaction
// idx have landed in one multiset commit: Stats, the wake policy, and the
// telemetry span opened at t0. syms holds the label symbols the commit added.
// The incremental policy wakes the reactions subscribed to those labels
// (schedule.go) plus the fired one, which may still be enabled on what
// remains; FullScan wakes every reaction, as the seed engine did.
func (w *worker) committed(idx, k int, syms []symtab.Sym, t0 time.Time) {
	r := w.p.Reactions[idx]
	w.stats.Steps += int64(k)
	w.fired[idx] += int64(k)
	woken := 0
	mark := func(j int) {
		if w.wake(j) {
			woken++
		}
	}
	if w.opt.FullScan {
		for j := range w.p.Reactions {
			mark(j)
		}
	} else {
		w.p.subs().forEachSym(syms, mark)
		mark(idx)
	}
	depth := w.remaining
	if w.sh != nil {
		depth = w.sh.deques[w.id].size()
	}
	w.ts.firing(idx, r.Name, t0, w.m, woken, depth, k)
	if afterCommit != nil {
		afterCommit(w)
	}
}

// afterCommit is a test hook: the differential and stress suites point it at
// the multiset's CheckInvariants so every commit of their runs is checked. In
// the sequential interpreter it runs inside w's write session.
var afterCommit func(w *worker)

// runSequential is the direct implementation of the Γ recursion (Eq. 1):
// while some (Ri, Ai) is enabled, replace the matched elements with the
// action's products; otherwise the multiset is the result. With Seed 0
// matching is deterministic.
//
// Scheduling is a dirty worklist drained round-robin: a reaction that fails
// to match is marked clean and skipped until a commit wakes it (see
// committed) — skipping is sound because a clean reaction is provably
// disabled (matching is monotone; removals never enable). The stable state of
// Eq. 1 is exactly "no dirty reaction": an empty worklist. Because a skipped
// probe would have failed anyway, the sequence of firings — and thus the
// deterministic result — is identical under the FullScan policy's full
// round-robin; only the wasted probes disappear.
//
// The run is the only writer of m while it lasts and does not pay for writers
// it cannot have: it probes and commits under one write session over every
// shard (multiset.LockWrite), given up and re-taken every sessionProbes probes
// — 64 lock operations, about a nanosecond a probe — so that a concurrent
// reader (Count, ForEach, String, a View) waits a bounded number of steps and
// then sees the state between two firings. Every exit releases it.
//
// The context is observed once per probe; a panic out of a reaction's
// condition or action (or the fault injector) is recovered into *rt.PanicError
// with the partial stats preserved.
func runSequential(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (stats *Stats, err error) {
	w := newWorker(ctx, p, m, opt, 0)
	stats = w.stats
	site := ""
	defer func() {
		if rec := recover(); rec != nil {
			err = rt.NewPanicError("gamma", site, 0, rec)
		}
		w.view.Unlock() // idempotent
		w.foldFired()
	}()
	n := len(p.Reactions)
	if n == 0 {
		return stats, nil
	}
	w.ts, w.dirty, w.remaining = newTelSink(opt, p, 0), make([]bool, n), n
	if opt.Seed != 0 {
		w.rng = rand.New(rand.NewSource(opt.Seed))
	}
	for i := range w.dirty {
		w.dirty[i] = true
	}
	m.LockWrite(&w.view)
	for i := 0; w.remaining > 0; i = (i + 1) % n {
		if !w.dirty[i] {
			continue
		}
		r := p.Reactions[i]
		site = r.Name
		if cerr := ctx.Err(); cerr != nil {
			return stats, rt.FromContext(cerr)
		}
		if stats.Probes++; stats.Probes%sessionProbes == 0 {
			w.view.Unlock()
			m.LockWrite(&w.view)
		}
		t0 := w.ts.begin()
		w.ts.probe(r.Name)
		s := w.searchers[i]
		s.begin(m, w.rng)
		ok := s.search(0)
		stats.Candidates += s.visited
		w.ts.candidates(s.visited)
		if s.err != nil {
			return stats, s.err
		}
		if !ok {
			w.dirty[i] = false
			w.remaining--
			continue
		}
		// The fired reaction stays dirty: consuming elements may leave it
		// enabled on what remains.
		if err := w.fire(i, s, t0); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// sessionProbes is the most probes a reader waits for runSequential's session.
const sessionProbes = 1024

// fire applies the enabled firing of reaction idx held by s and commits it:
// the consume+produce lands as one delta under a single lock acquisition per
// shard, and the label symbols it returns drive the wakeups.
func (w *worker) fire(idx int, s *searcher, t0 time.Time) error {
	r := w.p.Reactions[idx]
	if w.opt.MaxSteps > 0 && w.stats.Steps >= w.opt.MaxSteps {
		// The match just found proves the program is still enabled past the
		// step budget — no full Enabled rescan needed.
		return ErrMaxSteps
	}
	if w.opt.FaultInjector != nil {
		if err := w.opt.FaultInjector(r.Name, 0); err != nil {
			return err
		}
	}
	w.reset()
	if err := w.stage(r, s); err != nil {
		return err
	}
	n, syms := w.commit(r.Name)
	if n == 0 {
		// Unreachable single-threaded; defensive.
		return fmt.Errorf("gamma: matched elements vanished in sequential run of %s", r.Name)
	}
	w.committed(idx, 1, syms, t0)
	return nil
}

// stage evaluates the firing s holds and appends it to the worker's batch as
// a handle-addressed delta. Product cells land in the worker's vals arena and
// the headers in its produce list — the commit clones what it inserts and
// nothing retains the headers past it.
func (w *worker) stage(r *Reaction, s *searcher) error {
	k := r.kernel()
	cs, ps := len(w.consume), len(w.produce)
	var err error
	if w.vals, w.produce, err = k.produceInto(r.Name, s.branch, s.env, w.vals, w.produce); err != nil {
		return err
	}
	w.consume = append(w.consume, s.chosen...)
	w.refs = append(w.refs, s.refs()...)
	// Capacity-clamped subslices: later appends cannot write through earlier
	// deltas, and an arena realloc leaves them reading the old backing, whose
	// cells are immutable and already correct.
	w.deltas = append(w.deltas, multiset.Delta{
		Consume: w.consume[cs:len(w.consume):len(w.consume)],
		Refs:    w.refs[cs:len(w.refs):len(w.refs)],
		Produce: w.produce[ps:len(w.produce):len(w.produce)],
		PSyms:   k.branches[s.branch].psyms,
	})
	return nil
}

// commit lands the staged batch as one multiset commit — per-firing
// all-or-nothing claims by handle, under runSequential's session or, in the
// pool, one write-lock acquisition over the shard union — tells the schedule
// recorder of every applied firing, and returns how many applied with the
// label symbols they added.
func (w *worker) commit(name string) (int, []symtab.Sym) {
	applied := w.applied[:len(w.deltas)]
	rec := w.opt.Schedule
	var seqs []uint64
	if rec != nil {
		seqs = w.seqs[:len(w.deltas)]
	}
	var n int
	if w.sh == nil {
		n, w.symsBuf = w.view.Commit(w.deltas, applied, seqs, w.symsBuf[:0])
	} else {
		n, w.symsBuf = w.m.ApplyDeltas(w.deltas, applied, seqs, w.symsBuf[:0])
	}
	for i := range seqs {
		if applied[i] {
			rec.RecordStepTuples(seqs[i], name, w.deltas[i].Consume, w.deltas[i].Produce)
		}
	}
	return n, w.symsBuf
}

// stealSched is the coordination state of the parallel runtime: per-worker
// Chase-Lev deques (deque.go) with a global membership filter replace the
// seed's shared mutex-guarded worklist, so the scheduler's hot path — pop,
// enqueue, the post-commit wake check — is lock-free and the mutex guards
// only the cold idle/termination protocol and the error latch.
type stealSched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	idle    atomic.Int32 // workers parked in the idle wait; mutated under mu, read lock-free by wake
	done    bool         // stable state reached; under mu
	err     error        // first failure; under mu
	stopped atomic.Bool  // mirrors done||err≠nil for lock-free loop checks

	version atomic.Uint64 // bumped on every successful commit
	steps   atomic.Int64  // total committed firings, for the MaxSteps budget

	// queued[i] marks reaction i as present in exactly one deque; the CAS
	// claim on enqueue both dedupes wakeups and bounds total deque occupancy
	// by the reaction count, which is what makes the fixed deque capacity
	// safe. The taker clears the flag *before* probing, so a commit landing
	// mid-probe re-enqueues the reaction rather than losing the wakeup.
	queued []atomic.Bool
	deques []*deque
}

// enqueue marks reaction idx runnable and pushes it onto worker w's own
// deque, unless some deque already holds it. Must be called from worker w —
// deque pushes are owner-only — except for the initial seeding, which runs
// before the workers start and is ordered by the goroutine spawns. Reports
// whether the reaction was newly queued.
func (sh *stealSched) enqueue(w, idx int) bool {
	if !sh.queued[idx].CompareAndSwap(false, true) {
		return false
	}
	sh.deques[w].push(int32(idx))
	return true
}

// take pops the newest entry of worker w's own deque, clearing its membership
// flag before returning so concurrent commits can re-enqueue the reaction
// while it is being probed.
func (sh *stealSched) take(w int) (int, bool) {
	idx, ok := sh.deques[w].pop()
	if !ok {
		return 0, false
	}
	sh.queued[idx].Store(false)
	return int(idx), true
}

// wake unparks idle workers after a commit. The fast path is one atomic load:
// with nobody idle — the steady state under load — no lock is taken. A worker
// concurrently parking is not missed: it re-checks the version (already
// bumped by this commit, sequentially consistent with the idle load here)
// inside its wait-loop guard before blocking, and a worker that incremented
// idle before our load is seen and broadcast to.
func (sh *stealSched) wake() {
	if sh.idle.Load() > 0 {
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// runParallel executes reactions with a pool of workers performing
// optimistic grab–compute–commit cycles:
//
//  1. match: find up to batchMaxFirings pairwise-disjoint enabled
//     combinations of molecules of one reaction under one shard view
//     (randomized order, the model's nondeterminism);
//  2. compute: instantiate the enabled branches' products into per-worker
//     arenas;
//  3. commit: atomically claim the matched molecules, one ApplyDeltas per
//     batch; claims a concurrent worker beat us to fail individually, and a
//     fully failed batch is rematched with cancellation-aware backoff;
//  4. on success, bump the multiset version and wake reactions per the wake
//     policy (see committed).
//
// Scheduling is work stealing: each worker drains its own deque of reaction
// indexes (seeded round-robin with every reaction, refilled on each of its
// commits), and an empty-handed worker steals from a peer's deque before
// falling back to a scan. The deques are a best-effort accelerator — a probe
// may be wasted, never the other way around, because every commit re-enqueues
// at least its subscribers.
//
// Global termination reproduces Eq. 1's stability test exactly and does not
// rely on the deques: a worker that finds every deque empty falls back to a
// full scan of every reaction; if the scan fires nothing it goes idle *at a
// version*, and if the version is still current and all workers are idle at
// it, no molecule has changed since a full unsuccessful scan, so no reaction
// is enabled and the stable state is reached.
// Cancellation propagates three ways: workers poll ctx once per probe batch,
// timed conflict backoffs select on ctx.Done, and a watcher goroutine turns
// ctx.Done into sh.fail + cond broadcast so workers parked in the idle wait
// wake immediately — a canceled run returns in probe time, not in wait time.
func runParallel(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	workers := opt.Workers
	n := len(p.Reactions)
	if n == 0 {
		return newStats(workers), nil
	}
	sh := &stealSched{
		workers: workers,
		queued:  make([]atomic.Bool, n),
		deques:  make([]*deque, workers),
	}
	sh.cond = sync.NewCond(&sh.mu)
	for w := range sh.deques {
		sh.deques[w] = newDeque(n)
	}
	// Seed every reaction once, round-robin, so workers start with balanced
	// local work instead of racing one shared list.
	for i := 0; i < n; i++ {
		sh.enqueue(i%workers, i)
	}
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			sh.fail(rt.FromContext(ctx.Err()))
		case <-watchDone:
		}
	}()
	pool := make([]*worker, workers)
	var wg sync.WaitGroup
	for id := range pool {
		w := newWorker(ctx, p, m, opt, id)
		w.sh, w.rng = sh, rand.New(rand.NewSource(opt.Seed+int64(id)*0x9e3779b9+1))
		pool[id] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.ts = newTelSink(opt, p, w.id)
			w.loop()
		}()
	}
	wg.Wait()
	close(watchDone)
	total := newStats(workers)
	for _, w := range pool {
		w.foldFired()
		total.merge(w.stats)
	}
	sh.mu.Lock()
	err := sh.err
	sh.mu.Unlock()
	return total, err
}

// maxConflictRetries bounds how often a worker rematches the same reaction
// after a failed optimistic commit before yielding and moving on. Unbounded
// retries let one contended reaction starve the scan of every other reaction;
// bounded retries cannot lose work — a reaction taken from a deque is
// re-enqueued, and for one probed by the stability scan the conflicting
// commit bumped the version, so the scan repeats anyway.
const maxConflictRetries = 8

// conflictBackoff spaces out rematches of a contended reaction. The first
// retries stay hot (the conflicting commit usually finished already); after
// that the worker backs off exponentially, capped at 64µs, instead of
// spinning the match engine against the same hot molecules — under heavy
// contention a spinning loser just burns probes and memory bandwidth that the
// commit winner needs to make progress. Timed waits select on ctx.Done, so a
// canceled run is never delayed by parked contended workers; they are
// surfaced in Stats.BackoffWaits. Reports whether ctx ended the wait.
func (w *worker) conflictBackoff(retries int) (canceled bool) {
	if retries < 2 {
		runtime.Gosched()
		return false
	}
	shift := retries - 2
	if shift > 6 {
		shift = 6
	}
	w.stats.BackoffWaits++
	w.ts.backoffWait()
	timer := time.NewTimer(time.Duration(1<<uint(shift)) * time.Microsecond)
	defer timer.Stop()
	select {
	case <-w.ctx.Done():
		return true
	case <-timer.C:
		return false
	}
}

// batchMaxFirings bounds how many firings of one reaction a worker matches
// before committing the batch. Small enough to keep the shard view's read
// locks short and the optimistic-claim staleness window tight; large enough
// to amortize the commit's write-lock acquisitions and scheduler wakeups
// across several firings.
const batchMaxFirings = 8

// batchWorker is one worker's reusable commit scratch: the delta list for
// ApplyDeltas and the arenas the batch's tuples live in (stage fills them).
// Consume headers point at multiset entry tuples (immutable backings that are
// never recycled), refs are their handles, produce headers point at cells of
// the worker-owned vals arena; everything is truncated — not freed — between
// batches, so a steady-state batch allocates nothing. The sequential
// interpreter's batches hold one firing.
type batchWorker struct {
	deltas  []multiset.Delta
	applied [batchMaxFirings]bool
	seqs    [batchMaxFirings]uint64
	symsBuf []symtab.Sym
	consume []multiset.Tuple
	refs    []multiset.Ref
	produce []multiset.Tuple
	vals    []value.Value
	victims []int // reusable steal-order scratch
}

func (b *batchWorker) reset() {
	b.deltas = b.deltas[:0]
	b.consume = b.consume[:0]
	b.refs = b.refs[:0]
	b.produce = b.produce[:0]
	b.vals = b.vals[:0]
}

// tryFireBatch probes reaction idx under a shard view and fires up to
// batchMaxFirings pairwise-disjoint matches as one ApplyDeltas commit — the
// pool's firing path. The searcher spans the whole batch: each
// successful search leaves its occurrence claims in the claim tracker (a
// failed search's backtracking undoes only its own), so the next search can
// only choose molecules the batch has not consumed yet, which makes the
// deltas pairwise disjoint and the single commit equivalent to firing them
// one at a time (batch_test.go pins the equivalence). requeue re-enqueues the
// reaction after giving up on a contended commit (deque entries; the
// stability scan passes false — the winning commit bumped the version, so
// the scan repeats regardless). Returns whether a firing committed and
// whether the worker must stop (error, cancellation or MaxSteps).
//
// It is also the pool's panic barrier: a panic in a reaction's condition,
// action or the fault injector is recovered into a *rt.PanicError carrying
// the reaction and worker identity and the pool is told to stop, so the
// worker exits cleanly instead of taking the process down or leaving its
// peers waiting on an idle count that can never complete. The batch's read
// session is released first — a panic while its read locks are held would
// otherwise deadlock every later commit touching those shards.
func (w *worker) tryFireBatch(idx int, requeue bool) (fired, stop bool) {
	r := w.p.Reactions[idx]
	sh, opt, m := w.sh, &w.opt, w.m
	s := w.searchers[idx]
	defer func() {
		if rec := recover(); rec != nil {
			w.view.Unlock() // idempotent; no-op when not held
			sh.fail(rt.NewPanicError("gamma", r.Name, w.id, rec))
			fired, stop = false, true
		}
	}()
	for retries := 0; ; retries++ {
		if cerr := w.ctx.Err(); cerr != nil {
			sh.fail(rt.FromContext(cerr))
			return false, true
		}
		maxB := batchMaxFirings
		if opt.MaxSteps > 0 {
			rem := opt.MaxSteps - sh.steps.Load()
			if rem <= 0 {
				// Another worker's commit exhausted the budget already.
				sh.fail(ErrMaxSteps)
				return false, true
			}
			if int64(maxB) > rem {
				maxB = int(rem)
			}
		}
		w.reset()
		t0 := w.ts.begin()
		s.begin(m, w.rng)
		m.LockView(&w.view, s.k.viewSyms, s.k.viewAll)
		var ferr error
		for len(w.deltas) < maxB {
			w.stats.Probes++
			w.ts.probe(r.Name)
			ok := s.search(0)
			if s.err != nil {
				ferr = s.err
				break
			}
			if !ok {
				break // reaction exhausted under the batch's claims
			}
			if opt.FaultInjector != nil {
				if ferr = opt.FaultInjector(r.Name, w.id); ferr != nil {
					break
				}
			}
			if ferr = w.stage(r, s); ferr != nil {
				break
			}
			s.nextInBatch()
		}
		w.view.Unlock()
		w.stats.Candidates += s.visited
		w.ts.candidates(s.visited)
		if ferr != nil {
			sh.fail(ferr)
			return false, true
		}
		matched := len(w.deltas)
		if matched == 0 {
			return false, false
		}
		// Individual claims can still fail — a concurrent worker consumed a
		// matched molecule between the view unlock and the commit — without
		// voiding the rest of the batch.
		n, syms := w.commit(r.Name)
		if failedN := matched - n; failedN > 0 {
			w.stats.Conflicts += int64(failedN)
			w.ts.conflictN(r.Name, failedN)
		}
		if n == 0 {
			if retries < maxConflictRetries {
				w.stats.Retries++
				w.ts.retry(r.Name)
				if w.conflictBackoff(retries) {
					sh.fail(rt.FromContext(w.ctx.Err()))
					return false, true
				}
				continue // rematch: the molecules changed under us
			}
			// Heavily contended: yield so the other reactions and workers
			// make progress.
			if requeue {
				sh.enqueue(w.id, idx)
			}
			runtime.Gosched()
			return false, false
		}
		w.stats.Batches++
		w.ts.batch(n)
		newSteps := sh.steps.Add(int64(n))
		sh.version.Add(1)
		w.committed(idx, n, syms, t0)
		sh.wake()
		if opt.MaxSteps > 0 && newSteps >= opt.MaxSteps {
			sh.fail(ErrMaxSteps)
			return true, true
		}
		return true, false
	}
}

// loop is one pool worker's scheduling cycle: own deque, steal, stability
// scan, idle — until the pool stops.
func (w *worker) loop() {
	sh := w.sh
	n := len(w.p.Reactions)
	for {
		if sh.stopped.Load() {
			return
		}
		// 1. Own deque, newest first (hot in cache).
		if idx, ok := sh.take(w.id); ok {
			if _, stop := w.tryFireBatch(idx, true); stop {
				return
			}
			continue
		}
		// 2. Steal, oldest first, each peer tried once in an order derived
		// from the worker's own rng stream (deterministic for a fixed seed).
		stole := false
		w.victims = victimOrder(w.rng, w.id, sh.workers, w.victims)
		for _, v := range w.victims {
			x, ok := sh.deques[v].steal()
			if !ok {
				continue
			}
			sh.queued[x].Store(false)
			w.stats.Steals++
			w.ts.steal()
			stole = true
			if _, stop := w.tryFireBatch(int(x), true); stop {
				return
			}
			break
		}
		if stole {
			continue
		}
		// 3. Every deque empty: full scan, the exact Eq. 1 stability test.
		// The deques are best-effort under concurrency; this backstop keeps
		// termination exact regardless of scheduling races — a probe may be
		// wasted, never the other way around.
		scanVersion := sh.version.Load()
		fired := false
		start := w.rng.Intn(n)
		for k := 0; k < n; k++ {
			firedHere, stop := w.tryFireBatch((start+k)%n, false)
			if stop {
				return
			}
			if firedHere {
				fired = true
				break
			}
		}
		if fired {
			continue
		}
		// 4. Full scan with no enabled reaction. Go idle at scanVersion; if
		// all workers are idle at an unchanged version, no molecule has
		// changed since a full unsuccessful scan, so no reaction is enabled
		// and the stable state of Eq. 1 is reached. The scan probed every
		// reaction directly, so the conclusion never depends on deque
		// contents — and at this point every deque is empty anyway, because
		// an owner drains its own deque before scanning and only owners push.
		sh.mu.Lock()
		if sh.version.Load() != scanVersion {
			sh.mu.Unlock() // something committed mid-scan; rescan
			continue
		}
		sh.idle.Add(1)
		if int(sh.idle.Load()) == sh.workers { // all idle: stable state
			sh.done = true
			sh.stopped.Store(true)
			sh.cond.Broadcast()
			sh.mu.Unlock()
			return
		}
		for sh.version.Load() == scanVersion && !sh.done && sh.err == nil {
			sh.cond.Wait()
		}
		sh.idle.Add(-1)
		done := sh.done || sh.err != nil
		sh.mu.Unlock()
		if done {
			return
		}
	}
}

func (sh *stealSched) fail(err error) {
	sh.mu.Lock()
	// A failure after the stable state was already reached (e.g. the context
	// watcher losing the race with completion) must not turn success into an
	// error.
	if sh.err == nil && !sh.done {
		sh.err = err
		sh.stopped.Store(true)
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// Plan is a sequential composition of parallel reaction groups: the paper's
// ';' operator over '|' groups (P1 ; P2 ; ...). Each program runs to its
// stable state before the next starts.
type Plan struct {
	Stages []*Program
}

// Sequence builds a Plan from programs run one after another.
func Sequence(stages ...*Program) *Plan { return &Plan{Stages: stages} }

// Run executes every stage in order on the same multiset, merging stats.
func (pl *Plan) Run(m *multiset.Multiset, opt Options) (*Stats, error) {
	return pl.RunContext(context.Background(), m, opt)
}

// RunContext is Run under a context; a cancellation or deadline stops the
// current stage at its next commit boundary and returns the stats merged
// across the stages run so far.
func (pl *Plan) RunContext(ctx context.Context, m *multiset.Multiset, opt Options) (*Stats, error) {
	total := newStats(max(opt.Workers, 1))
	for _, stage := range pl.Stages {
		st, err := RunContext(ctx, stage, m, opt)
		if st != nil {
			total.merge(st)
		}
		if err != nil {
			return total, fmt.Errorf("gamma: stage %s: %w", stage.Name, err)
		}
	}
	return total, nil
}
