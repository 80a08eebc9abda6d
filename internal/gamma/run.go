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
// committed reaction firing with its commit sequence number, the time its
// successful probe started, and the raw tuples it consumed (in pattern order,
// which is what lets replay re-match them positionally) and produced.
// Sequence numbers are drawn inside the multiset's commit critical sections,
// so sorting the records by seq yields a sequential firing order that is a
// valid linearization even of a nondeterministic parallel run; provenance,
// work/span profiles, run metrics and replay are all folds over that order
// (package replay). With Workers > 1 calls arrive from every part's
// goroutine, concurrently and out of seq order, so implementations must be
// safe for concurrent use; every call comes from inside a write session, so
// an implementation must not touch the multiset being run, not even to read
// it.
// The tuples are valid only during the call — the consumed ones are the
// multiset's own cells, which the next commit may reuse — so implementations
// extract what they need before returning (replay.Recorder fingerprints them
// into one byte buffer, so recording allocates nothing per firing).
type ScheduleRecorder interface {
	RecordStepTuples(seq uint64, name string, start time.Time, consumed, produced []multiset.Tuple)
}

// Options configures an execution.
type Options struct {
	// Workers is the number of concurrent reaction executors. 0 or 1 selects
	// the deterministic sequential interpreter; larger values split the
	// multiset into that many sub-solutions run side by side (runParallel).
	Workers int
	// Seed seeds the nondeterministic candidate selection. Sequential runs
	// with Seed 0 are fully deterministic; parallel runs use Seed to derive
	// per-part streams.
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
	// the reaction name and worker index (the part's, in a parallel run); a
	// non-nil return aborts the run with that error, and a panic inside it
	// exercises the engines' panic recovery. For stress tests; leave nil in
	// production runs.
	FaultInjector rt.FaultInjector
	// Schedule, when set, receives every committed firing (see
	// ScheduleRecorder). Nil costs one branch per probe and one per commit:
	// the engine reads the clock only for a recorder.
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
	// Conflicts, Retries, Steals, Batches and BackoffWaits counted the work of
	// the optimistic work-stealing pool. The sub-solution engine that replaced
	// it has no failed commits, steals or batches, so they are always 0; they
	// stay declared for bench/, which reads them (ROADMAP item 10).
	Conflicts, Retries, Steals, Batches, BackoffWaits int64
	// PartSteps holds, for a parallel run, the firings of each sub-solution in
	// part order; Steps minus their sum is what the completion pass fired. Nil
	// for a sequential run.
	PartSteps []int64
	// ArenaBytes is the multiset storage work the run caused: arena chunk
	// bytes carved (Multiset.ArenaBytes, after minus before; what the parts of
	// a parallel run carved comes back with them).
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
	s.ArenaBytes += o.ArenaBytes
	if len(s.PartSteps) < len(o.PartSteps) {
		s.PartSteps = append(s.PartSteps, make([]int64, len(o.PartSteps)-len(s.PartSteps))...)
	}
	for i, n := range o.PartSteps {
		s.PartSteps[i] += n
	}
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
// Readers of m during the run: a sequential run lets them in between two
// firings every sessionProbes probes. A parallel run holds m's write session
// while its elements are out in the sub-solutions, so a reader that takes a
// lock (Count, ForEach, String, a View) blocks until they are back and never
// sees m emptied; Len takes none and may read 0 meanwhile.
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
	return st, err
}

// runContext is RunContext without the storage accounting, which sits in a
// frame of its own on purpose: the matcher below copies 32-byte values through
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
		if err := r.checked(); err != nil {
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

// worker is one sequential interpreter's state for the length of a run: the
// whole run's at Workers <= 1, one sub-solution's (or the completion pass's) in
// a parallel run. Everything fixed for the run lives in the receiver, so the
// hot functions take only what varies per call.
type worker struct {
	p     *Program
	m     *multiset.Multiset
	opt   Options
	stats *Stats
	rng   *rand.Rand    // nil selects the deterministic sequential matcher
	id    int           // part index in a parallel run (see part), else 0
	steps *atomic.Int64 // the parallel run's remaining step budget, else nil

	// The worklist: dirty[i] marks reaction i for (re)probing and remaining
	// counts the marks.
	dirty     []bool
	remaining int

	// Per reaction index: the worker's searcher scratch and its firing count,
	// folded into stats.Fired by foldFired at exit. All of them enumerate through
	// view, runSequential's write session.
	searchers []*searcher
	fired     []int64
	view      multiset.View

	// The commit scratch (see fire): the one delta handed to View.Commit, the
	// cells its products live in and the label symbols the commit reports.
	delta   multiset.Delta
	vals    []value.Value
	symsBuf []symtab.Sym
}

// newWorker builds the worker of one runSequential call. id is what that call
// passes, always 0 — runSequential's frame is pinned (see runContext) and the
// argument is part of it; a sub-solution's index and budget arrive as ctx.
func newWorker(ctx context.Context, p *Program, m *multiset.Multiset, opt Options, id int) *worker {
	w := &worker{p: p, m: m, opt: opt, id: id, stats: newStats(max(opt.Workers, 1)),
		fired: make([]int64, len(p.Reactions))}
	if pt, ok := ctx.(*part); ok {
		w.id, w.steps = pt.id, pt.budget
	}
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

// committed is the bookkeeping once a firing of reaction idx has landed in the
// multiset: Stats and the wake policy. syms holds the label symbols the commit
// added. The incremental policy wakes the
// reactions subscribed to those labels (schedule.go) plus the fired one, which
// may still be enabled on what remains; FullScan wakes every reaction, as the
// seed engine did.
func (w *worker) committed(idx int, syms []symtab.Sym) {
	w.stats.Steps++
	w.fired[idx]++
	mark := func(j int) {
		if !w.dirty[j] {
			w.dirty[j] = true
			w.remaining++
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
// it cannot have: it probes and commits under one write session
// (multiset.LockWrite), given up and re-taken every sessionProbes probes — two
// lock operations — so that a concurrent reader (Count, ForEach, String, a
// View) waits a bounded number of steps and then sees the state between two
// firings. Every exit releases it.
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
			err = rt.NewPanicError("gamma", site, w.id, rec)
		}
		w.view.Unlock() // idempotent
		w.foldFired()
	}()
	n := len(p.Reactions)
	if n == 0 {
		return stats, nil
	}
	w.dirty, w.remaining = make([]bool, n), n
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
			runtime.Gosched() // let the readers just woken in before the next LockWrite
			m.LockWrite(&w.view)
		}
		var t0 time.Time
		if opt.Schedule != nil {
			t0 = time.Now()
		}
		s := w.searchers[i]
		s.begin(m, w.rng)
		ok := s.search(0)
		stats.Candidates += s.visited
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

// fire applies the enabled firing of reaction idx held by s and commits it
// inside the worker's write session — an all-or-nothing claim by handle —
// tells the schedule recorder of it (with t0, when the probe that found it
// started), and wakes what the label symbols the commit returns name.
func (w *worker) fire(idx int, s *searcher, t0 time.Time) error {
	r := w.p.Reactions[idx]
	// The match just found proves the program is still enabled past the step
	// budget — no full Enabled rescan needed. A parallel run's budget is
	// reserved before the firing, which from here on cannot fail to land, so
	// the parts together fire exactly MaxSteps times before one of them stops.
	if w.steps != nil {
		if w.steps.Add(-1) < 0 {
			return ErrMaxSteps
		}
	} else if w.opt.MaxSteps > 0 && w.stats.Steps >= w.opt.MaxSteps {
		return ErrMaxSteps
	}
	if w.opt.FaultInjector != nil {
		if err := w.opt.FaultInjector(r.Name, w.id); err != nil {
			return err
		}
	}
	// The firing is built in place as a handle-addressed delta: the searcher's
	// chosen tuples and their handles as they stand, product cells in the
	// worker's vals arena, product headers in the delta's own list — truncated,
	// not freed, between firings, so a steady-state firing allocates nothing.
	// The commit clones what it inserts and nothing retains the headers past it.
	k, d := r.kernel(), &w.delta
	var err error
	if w.vals, d.Produce, err = k.produceInto(r.Name, s.branch, s.env, w.vals[:0], d.Produce[:0]); err != nil {
		return err
	}
	d.Consume, d.Refs, d.PSyms = s.chosen, s.refs(), k.branches[s.branch].psyms
	rec := w.opt.Schedule
	seq, ok, syms := w.view.Commit(d, rec != nil, w.symsBuf[:0])
	if !ok {
		// Unreachable: the session's holder is the multiset's only writer.
		return fmt.Errorf("gamma: matched elements vanished in sequential run of %s", r.Name)
	}
	w.symsBuf = syms
	if rec != nil {
		rec.RecordStepTuples(seq, r.Name, t0, d.Consume, d.Produce)
	}
	w.committed(idx, syms)
	return nil
}

// part is what tells a sub-solution's worker, and the completion pass after
// them, from the plain sequential interpreter: the index reported as the worker
// id, and the step budget shared by the run (nil when unbounded). It rides on
// the context runSequential is handed because that function's signature and
// frame are pinned (see runContext); newWorker unpacks it into worker fields.
type part struct {
	context.Context
	id     int
	budget *atomic.Int64
}

// runParallel runs p on m as sub-solutions, the parallelism Eq. 1 licenses
// directly: a reaction reads and replaces only the elements it matched, so
// firings on disjoint elements commute and a part of the multiset may evolve
// on its own in any context (the membrane law of the chemical abstract
// machine).
//
//  1. partition: under m's write session the elements move into Workers
//     private multisets (multiset.View.Partition);
//  2. one goroutine per part runs the sequential interpreter on it —
//     runSequential as it is — seeded with its own stream, to the part's
//     stable state;
//  3. absorb: what is left of the parts moves back into m and the session ends;
//  4. completion: a part that is stable on its own is not stable next to the
//     others' leftovers, so one ordinary sequential pass on m runs to the
//     stable state of Eq. 1 — the exact stability test, and the only one.
//
// Every firing draws its commit sequence number from m's counter, so
// Options.Schedule receives a linearization that replays on the unsplit m. The
// session is held from partition to absorb: a concurrent reader of m blocks
// for that long and never sees it emptied (Len, which takes no lock, reads 0).
// Every exit absorbs first, so m is always a prefix of a valid firing
// sequence; a part that fails cancels its siblings through its context, and
// its error, not their ErrCanceled, is the run's. MaxSteps is one budget drawn
// on by the parts and the completion pass alike.
func runParallel(ctx context.Context, p *Program, m *multiset.Multiset, opt Options) (*Stats, error) {
	total := newStats(opt.Workers)
	if len(p.Reactions) == 0 {
		return total, nil
	}
	var budget *atomic.Int64
	if opt.MaxSteps > 0 {
		budget = new(atomic.Int64)
		budget.Store(opt.MaxSteps)
	}
	stop, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		session multiset.View
		wg      sync.WaitGroup
		failed  sync.Once
		first   error
	)
	m.LockWrite(&session)
	parts := session.Partition(opt.Workers)
	stats := make([]*Stats, len(parts))
	for id := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A context of the part's own: Err, polled once per probe, locks
			// the context it is called on.
			pctx, done := context.WithCancel(stop)
			defer done()
			popt := opt
			popt.Seed = opt.Seed + int64(id)*0x9e3779b9 + 1
			var err error
			if stats[id], err = runSequential(&part{pctx, id, budget}, p, parts[id], popt); err != nil {
				failed.Do(func() { first = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	session.Absorb(parts)
	session.Unlock()
	for _, st := range stats {
		total.merge(st)
		total.PartSteps = append(total.PartSteps, st.Steps)
	}
	if first != nil {
		return total, first
	}
	st, err := runSequential(&part{ctx, 0, budget}, p, m, opt)
	total.merge(st)
	return total, err
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
