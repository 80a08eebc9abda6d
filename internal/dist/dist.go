// Package dist implements the distributed multiset execution environment the
// paper leaves as future work (§IV: "the implementation of Gamma distributed
// multisets", motivated by IoT deployments). A Cluster simulates a set of
// nodes, each owning a shard of the multiset and running the Gamma runtime
// locally; elements migrate between nodes through counted message channels
// (the stand-in for the paper's interest-based network — see DESIGN.md §4 on
// substitutions).
//
// Execution proceeds in rounds:
//
//  1. react: every node runs its shard to a local stable state concurrently
//     (the full gamma runtime, so a node may itself be multi-worker);
//  2. diffuse: each node ships a batch of randomly chosen elements to a
//     random peer, creating new cross-node match opportunities;
//  3. terminate: when a whole round fires nothing anywhere, the coordinator
//     gathers all shards and checks Eq. 1's global stability condition; if
//     some reaction is still enabled the elements are redistributed and
//     execution continues, otherwise the union is the result.
//
// The gather step makes termination exact: a cluster never stops while any
// cross-shard combination of elements could react, and never runs forever
// after true stability.
//
// # Fault model
//
// Distributed Gamma machines must survive slow and dead nodes (the chemical
// machine line treats worker failure as a first-class runtime concern), so
// each node's react phase runs under a per-attempt timeout
// (Options.NodeTimeout) with a bounded retry budget (Options.NodeRetries). A
// node that exhausts its budget is declared dead with a *rt.NodeError: its
// shard — always consistent, because the context-aware Gamma runtime stops at
// commit boundaries — is redistributed to the survivors, which finish the
// fixpoint without it. The run then completes in degraded mode
// (Stats.Degraded, Stats.DeadNodes) instead of hanging; only when every node
// is dead does RunContext return the error. Options.FaultInjector simulates
// crashes for the stress tests. Cancellation and deadlines on the RunContext
// context propagate into every node and stop the cluster between rounds with
// rt.ErrCanceled / rt.ErrDeadline.
package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/gamma"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/telemetry"
)

// Topology selects which peers a node may diffuse elements to.
type Topology int

const (
	// TopologyFull lets every node reach every other node directly (a
	// datacenter-style fabric).
	TopologyFull Topology = iota
	// TopologyRing restricts diffusion to the two ring neighbours — the
	// constrained connectivity of edge/IoT deployments. Convergence takes
	// more rounds because elements random-walk around the ring; the gather
	// step keeps termination exact regardless.
	TopologyRing
)

func (t Topology) String() string {
	if t == TopologyRing {
		return "ring"
	}
	return "full"
}

// Options configures a cluster run.
type Options struct {
	// Nodes is the number of simulated nodes (≥ 1).
	Nodes int
	// Topology constrains diffusion peers (default TopologyFull).
	Topology Topology
	// WorkersPerNode is each node's local Gamma worker count.
	WorkersPerNode int
	// Seed drives element placement, diffusion and local nondeterminism.
	Seed int64
	// DiffusionBatch is how many elements a node ships per round (default 4).
	DiffusionBatch int
	// MaxRounds bounds the react-diffuse rounds; 0 means 10000 (a cluster
	// that diffuses forever without firing indicates a bug, not progress).
	MaxRounds int
	// MaxStepsPerRound bounds each node's local execution per round. Hitting
	// the bound is benign truncation — the node simply ends its round early
	// and continues next round — so this is a pacing/fairness knob, not an
	// error condition. A program that never stabilizes therefore surfaces as
	// ErrMaxRounds rather than a per-node failure.
	MaxStepsPerRound int64
	// NodeTimeout bounds each attempt of a node's react phase; 0 means no
	// timeout. A node that times out is retried (see NodeRetries) and, once
	// out of attempts, declared dead: the run degrades instead of hanging.
	NodeTimeout time.Duration
	// NodeRetries is how many extra attempts a failing node's react phase
	// gets before the node is declared dead. 0 means the default of 2;
	// negative means no retries (one attempt only).
	NodeRetries int
	// FaultInjector, when set, runs before each attempt of a node's react
	// phase; a non-nil return simulates the node crashing for that attempt
	// (the shard is untouched and the failure counts against the retry
	// budget). For stress tests; leave nil in production runs.
	FaultInjector func(node, round int) error
	// Recorder, when non-nil, receives cluster-level telemetry (rounds,
	// migrations, gathers, dead-node adoptions on the "cluster" track) and is
	// passed through to every node's local Gamma runtime, whose firings land
	// on "node<i>/w<j>" tracks. Nil disables telemetry at nil-check cost.
	Recorder *telemetry.Recorder
}

// Stats reports a cluster execution.
type Stats struct {
	// Steps is the total number of reaction firings across all nodes.
	Steps int64
	// Probes is the total number of reaction match searches across all
	// nodes — the cluster-wide matching-engine work metric.
	Probes int64
	// Conflicts is the total number of failed optimistic commits across all
	// nodes (only nonzero with WorkersPerNode > 1).
	Conflicts int64
	// Retries is the total number of commit-conflict rematches across all
	// nodes (see gamma.Stats.Retries).
	Retries int64
	// Rounds is the number of react-diffuse rounds executed.
	Rounds int
	// Migrations counts elements shipped between nodes (diffusion and
	// redistribution alike).
	Migrations int64
	// Gathers counts global stability checks.
	Gathers int
	// PerNode is the firing count of each node.
	PerNode []int64
	// DeadNodes lists nodes declared dead (retry budget exhausted), in the
	// order they died.
	DeadNodes []int
	// Degraded reports that at least one node died and the survivors carried
	// the fixpoint to completion without it.
	Degraded bool
}

// ErrMaxRounds is returned when the round bound is exceeded. It wraps
// rt.ErrDivergent: a cluster still firing after MaxRounds react-diffuse
// rounds is the distributed signature of a program with no stable state.
var ErrMaxRounds = rt.Wrap("dist: maximum rounds exceeded", rt.ErrDivergent)

// Cluster is a simulated distributed Gamma machine.
type Cluster struct {
	prog *gamma.Program
	opt  Options
}

// NewCluster validates the program and options.
func NewCluster(prog *gamma.Program, opt Options) (*Cluster, error) {
	if opt.Nodes < 1 {
		return nil, rt.Mark(rt.ErrInvalid, fmt.Errorf("dist: need at least 1 node, got %d", opt.Nodes))
	}
	for _, r := range prog.Reactions {
		if err := r.Validate(); err != nil {
			return nil, rt.Mark(rt.ErrInvalid, err)
		}
	}
	if opt.DiffusionBatch <= 0 {
		opt.DiffusionBatch = 4
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 10000
	}
	switch {
	case opt.NodeRetries == 0:
		opt.NodeRetries = 2
	case opt.NodeRetries < 0:
		opt.NodeRetries = 0
	}
	return &Cluster{prog: prog, opt: opt}, nil
}

// Run executes the program over m distributed across the cluster and returns
// the stable union multiset. m itself is consumed.
//
// Run is RunContext with context.Background(): no deadline, no cancellation.
func (c *Cluster) Run(m *multiset.Multiset) (*multiset.Multiset, *Stats, error) {
	return c.RunContext(context.Background(), m)
}

// RunContext is Run under a context: ctx propagates into every node's local
// execution and is additionally observed between rounds, so a cancellation or
// deadline stops the cluster promptly with partial Stats. Node failures
// follow the package fault model: bounded retry, then death and degradation;
// the error is only surfaced once no live node remains.
func (c *Cluster) RunContext(ctx context.Context, m *multiset.Multiset) (*multiset.Multiset, *Stats, error) {
	rng := rand.New(rand.NewSource(c.opt.Seed + 1))
	stats := &Stats{PerNode: make([]int64, c.opt.Nodes)}
	cs := newClusterSink(c.opt)
	// Migrations are incremented deep inside scatter/moveBatch; reconcile the
	// registry mirror on every exit path so the two accountings agree exactly.
	defer func() { cs.syncMigrations(stats.Migrations) }()
	alive := make([]bool, c.opt.Nodes)
	for i := range alive {
		alive[i] = true
	}
	liveCount := c.opt.Nodes

	// Initial placement: elements scatter uniformly, the no-locality
	// worst case for a distributed multiset.
	shards := make([]*multiset.Multiset, c.opt.Nodes)
	for i := range shards {
		shards[i] = multiset.New()
	}
	scatter(m, shards, alive, rng, &stats.Migrations)
	cs.syncMigrations(stats.Migrations)

	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, rt.FromContext(err)
		}
		if round >= c.opt.MaxRounds {
			return nil, stats, ErrMaxRounds
		}
		stats.Rounds++
		t0 := cs.begin()

		// React phase: all live nodes to their local stable state,
		// concurrently. Each node runs the same incremental matching engine
		// as a single-machine execution, under the per-attempt timeout and
		// retry budget of the fault model.
		nodeStats := make([]*gamma.Stats, c.opt.Nodes)
		errs := make([]error, c.opt.Nodes)
		var wg sync.WaitGroup
		for n := 0; n < c.opt.Nodes; n++ {
			if !alive[n] {
				continue
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				nodeStats[n], errs[n] = c.runNode(ctx, n, round, shards[n])
			}(n)
		}
		wg.Wait()
		fired := int64(0)
		for n := 0; n < c.opt.Nodes; n++ {
			if st := nodeStats[n]; st != nil {
				fired += st.Steps
				stats.PerNode[n] += st.Steps
				stats.Probes += st.Probes
				stats.Conflicts += st.Conflicts
				stats.Retries += st.Retries
			}
		}
		stats.Steps += fired
		cs.round(t0, fired, liveCount)

		// Bury dead nodes: survivors adopt the shard (still consistent — the
		// node stopped at a commit boundary) and the run degrades rather than
		// hanging or failing while progress is still possible.
		for n := 0; n < c.opt.Nodes; n++ {
			if errs[n] == nil {
				continue
			}
			var ne *rt.NodeError
			if !errors.As(errs[n], &ne) {
				// Not a node fault: the whole run was canceled or hit its
				// deadline. Surface immediately.
				return nil, stats, fmt.Errorf("dist: node %d: %w", n, errs[n])
			}
			alive[n] = false
			liveCount--
			stats.DeadNodes = append(stats.DeadNodes, n)
			stats.Degraded = true
			cs.adopt(n, liveCount)
			if liveCount == 0 {
				return nil, stats, fmt.Errorf("dist: all nodes dead: %w", errs[n])
			}
			scatter(shards[n], shards, alive, rng, &stats.Migrations)
			shards[n] = multiset.New()
		}
		cs.syncMigrations(stats.Migrations)

		if fired == 0 && round > 0 {
			// Quiescent round: check Eq. 1's global condition on the union.
			stats.Gathers++
			union := multiset.New()
			for _, s := range shards {
				s.ForEach(func(t multiset.Tuple, n int) bool {
					union.AddN(t, n)
					stats.Migrations += int64(n)
					return true
				})
			}
			cs.gather(union.Len())
			enabled, err := gamma.Enabled(c.prog, union)
			if err != nil {
				return nil, stats, err
			}
			if !enabled {
				return union, stats, nil
			}
			// Cross-shard matches exist: redistribute and continue.
			for i := range shards {
				shards[i] = multiset.New()
			}
			scatter(union, shards, alive, rng, &stats.Migrations)
			continue
		}

		// Diffuse phase: each live node ships a random batch to a live peer
		// allowed by the topology.
		if liveCount > 1 {
			for n := 0; n < c.opt.Nodes; n++ {
				if !alive[n] {
					continue
				}
				peer := pickPeer(n, alive, c.opt.Topology, rng)
				stats.Migrations += moveBatch(shards[n], shards[peer], c.opt.DiffusionBatch, rng)
			}
			cs.syncMigrations(stats.Migrations)
		}
	}
}

// runNode executes one node's react phase with the fault model applied:
// FaultInjector consultation, per-attempt timeout, bounded retry with a
// perturbed seed, and classification of the outcome. Stats accumulate across
// attempts (work done before a timeout is still work done). Hitting
// MaxStepsPerRound is benign truncation, not a failure.
func (c *Cluster) runNode(ctx context.Context, n, round int, shard *multiset.Multiset) (*gamma.Stats, error) {
	total := &gamma.Stats{Fired: make(map[string]int64), Workers: c.opt.WorkersPerNode}
	var lastErr error
	for attempt := 0; attempt <= c.opt.NodeRetries; attempt++ {
		if c.opt.FaultInjector != nil {
			if ferr := c.opt.FaultInjector(n, round); ferr != nil {
				lastErr = ferr
				continue
			}
		}
		nctx := ctx
		cancel := func() {}
		if c.opt.NodeTimeout > 0 {
			nctx, cancel = context.WithTimeout(ctx, c.opt.NodeTimeout)
		}
		st, err := gamma.RunContext(nctx, c.prog, shard, gamma.Options{
			Workers:    c.opt.WorkersPerNode,
			Seed:       c.opt.Seed + int64(round)*31 + int64(n) + 1 + int64(attempt)*101,
			MaxSteps:   c.opt.MaxStepsPerRound,
			Recorder:   c.opt.Recorder,
			TrackLabel: fmt.Sprintf("node%d", n),
		})
		cancel()
		if st != nil {
			addStats(total, st)
		}
		switch {
		case err == nil:
			return total, nil
		case errors.Is(err, gamma.ErrMaxSteps):
			// Per-round pacing budget exhausted: end the round early; the
			// next round resumes from the shard's current state.
			return total, nil
		case ctx.Err() != nil:
			// The whole run was canceled or timed out, not this attempt.
			return total, rt.FromContext(ctx.Err())
		default:
			lastErr = err
		}
	}
	return total, &rt.NodeError{Node: n, Attempts: c.opt.NodeRetries + 1, Err: lastErr}
}

// addStats accumulates src into dst (package gamma keeps its merge
// unexported; the fields are additive counters).
func addStats(dst, src *gamma.Stats) {
	dst.Steps += src.Steps
	dst.Probes += src.Probes
	dst.Candidates += src.Candidates
	dst.Conflicts += src.Conflicts
	dst.Retries += src.Retries
	dst.MemoHits += src.MemoHits
	dst.ArenaBytes += src.ArenaBytes
	dst.ListsRecycled += src.ListsRecycled
	dst.ListsFresh += src.ListsFresh
	for k, v := range src.Fired {
		dst.Fired[k] += v
	}
}

// pickPeer chooses a live diffusion target for node n. On the ring topology
// the batch goes to the nearest live neighbour in a random direction (dead
// nodes are bridged, keeping the ring connected); on the full fabric it goes
// to a uniformly random live peer.
func pickPeer(n int, alive []bool, topo Topology, rng *rand.Rand) int {
	total := len(alive)
	if topo == TopologyRing {
		step := 1
		if rng.Intn(2) != 0 {
			step = total - 1 // -1 mod total
		}
		for p := (n + step) % total; p != n; p = (p + step) % total {
			if alive[p] {
				return p
			}
		}
		return n
	}
	live := 0
	for p, ok := range alive {
		if ok && p != n {
			live++
		}
	}
	k := rng.Intn(live)
	for p, ok := range alive {
		if ok && p != n {
			if k == 0 {
				return p
			}
			k--
		}
	}
	return n // unreachable: callers guarantee a live peer exists
}

// scatter distributes all of src over the live shards uniformly at random.
func scatter(src *multiset.Multiset, shards []*multiset.Multiset, alive []bool, rng *rand.Rand, migrations *int64) {
	live := make([]*multiset.Multiset, 0, len(shards))
	for i, s := range shards {
		if alive[i] {
			live = append(live, s)
		}
	}
	for _, t := range src.Expand() {
		live[rng.Intn(len(live))].Add(t)
		*migrations++
	}
}

// moveBatch moves up to batch randomly chosen elements from one shard to
// another, returning how many moved.
func moveBatch(from, to *multiset.Multiset, batch int, rng *rand.Rand) int64 {
	elems := from.Expand()
	if len(elems) == 0 {
		return 0
	}
	rng.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	if batch > len(elems) {
		batch = len(elems)
	}
	moved := int64(0)
	for _, t := range elems[:batch] {
		if from.Remove(t) {
			to.Add(t)
			moved++
		}
	}
	return moved
}
