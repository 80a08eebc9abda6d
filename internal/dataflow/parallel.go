package dataflow

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/rt"
)

// runParallel executes the graph on a pool of processing elements. Each PE
// owns the vertices whose id hashes to it — mirroring how dataflow runtimes
// virtualize PEs over cores (§II-A) — so a vertex's matching store is only
// ever touched by its owner and needs no lock. Tokens are routed between PEs
// through unbounded mailboxes.
//
// Termination is detected by in-flight accounting: the counter is incremented
// before a token is enqueued and decremented only after the token's delivery
// (including enqueueing any tokens the firing produced). When the counter
// reaches zero no token exists or can appear, which is the dataflow analogue
// of Gamma's stable state.
//
// Cancellation propagates through a watcher goroutine that turns ctx.Done()
// into fail + mailbox close: parked PEs wake immediately, and a failed engine
// drops queued tokens instead of firing them, so a canceled run returns in
// delivery time even with a deep backlog.
func runParallel(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	workers := opt.Workers
	eng := &parEngine{
		g:     g,
		opt:   opt,
		ops:   compilePureOps(g),
		boxes: make([]*mailbox, workers),
		done:  make(chan struct{}),
	}
	for i := range eng.boxes {
		eng.boxes[i] = newMailbox()
	}
	stores := make([]store, len(g.Nodes))
	for i := range stores {
		stores[i] = make(store)
	}

	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			eng.fail(rt.FromContext(ctx.Err()))
		case <-watchDone:
		}
	}()

	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		results[w] = newResult(workers)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng.peLoop(w, stores, results[w])
		}(w)
	}

	// Inject the const tokens. Count them first so the in-flight counter
	// cannot transiently hit zero between sends. The PEs are parked on empty
	// mailboxes until then, so the const firings seed the budget counter
	// unraced.
	seed := newResult(workers)
	toks, err := initialTokens(g, opt, seed, newDFSink(opt, g, -1), &eng.sched)
	eng.firings.Store(seed.Firings)
	if err != nil {
		eng.fail(err)
	} else if len(toks) == 0 {
		eng.shutdown()
	} else {
		eng.inflight.Add(int64(len(toks)))
		for _, t := range toks {
			eng.route(t)
		}
	}
	wg.Wait()
	close(watchDone)

	total := seed
	total.Pending = countPending(stores)
	for _, r := range results {
		total.Firings += r.Firings
		total.MemoHits += r.MemoHits
		for k, v := range r.PerNode {
			total.PerNode[k] += v
		}
		for k, vs := range r.Outputs {
			total.Outputs[k] = append(total.Outputs[k], vs...)
		}
	}
	sortOutputs(total)
	if err := eng.err.Load(); err != nil {
		return total, err.(error)
	}
	return total, nil
}

type parEngine struct {
	g        *Graph
	opt      Options
	ops      []pureOp
	boxes    []*mailbox
	inflight atomic.Int64
	firings  atomic.Int64 // firings reserved against Options.MaxFirings
	// sched numbers firings for Options.Schedule. A firing's number is drawn
	// before its output tokens are routed, and a consumer's firing starts
	// after popping those tokens from a mailbox (a mutex handoff), so the
	// numbers linearize the PE pool's nondeterministic interleaving.
	sched  atomic.Uint64
	err    atomic.Value // error
	done   chan struct{}
	closed sync.Once
}

func (e *parEngine) shutdown() {
	e.closed.Do(func() {
		close(e.done)
		for _, b := range e.boxes {
			b.close()
		}
	})
}

func (e *parEngine) fail(err error) {
	select {
	case <-e.done:
		// Already terminated — a cancellation losing the race with successful
		// completion must not turn the result into an error.
		return
	default:
	}
	e.err.CompareAndSwap(nil, err)
	e.shutdown()
}

// owner maps a vertex to its PE.
func (e *parEngine) owner(n NodeID) int { return int(n) % len(e.boxes) }

// route enqueues a token whose in-flight slot is already counted. Tokens for
// a vertex go to its owning PE; terminal tokens have no destination vertex,
// so they are spread over PEs by edge id.
func (e *parEngine) route(t Token) {
	edge := e.g.Edges[t.Edge]
	var pe int
	if edge.To == NoNode {
		pe = int(edge.ID) % len(e.boxes)
	} else {
		pe = e.owner(edge.To)
	}
	e.boxes[pe].push(t)
}

func (e *parEngine) peLoop(id int, stores []store, res *Result) {
	box := e.boxes[id]
	ts := newDFSink(e.opt, e.g, id)
	for {
		tok, ok := box.pop()
		if !ok {
			return
		}
		e.process(id, tok, stores, res, ts)
	}
}

func (e *parEngine) process(pe int, tok Token, stores []store, res *Result, ts *dfSink) {
	defer func() {
		if e.inflight.Add(-1) == 0 {
			e.shutdown()
		}
	}()
	site := ""
	defer func() {
		// The PE pool's panic barrier: one faulty vertex operation fails the
		// run with its identity attached instead of crashing the process or
		// desynchronizing the in-flight accounting (the outer defer still
		// runs, so termination detection stays exact).
		if rec := recover(); rec != nil {
			e.fail(rt.NewPanicError("dataflow", site, pe, rec))
		}
	}()
	if e.err.Load() != nil {
		// Failed or canceled: drain without firing so shutdown is prompt
		// even with a deep token backlog.
		return
	}
	edge := e.g.Edges[tok.Edge]
	if edge.To == NoNode {
		res.Outputs[edge.Label] = append(res.Outputs[edge.Label], TaggedValue{Tag: tok.Tag, Val: tok.Val})
		return
	}
	n := e.g.Nodes[edge.To]
	key := ""
	if e.opt.Schedule != nil {
		key = TokenKey(e.g, tok)
	}
	operands, keys, ready := stores[edge.To].deliver(n, edge.ToPort, tok.Tag, tok.Val, key)
	if !ready {
		return
	}
	site = n.Name
	// Reserve, then fire: the slot is claimed before the vertex runs, so
	// concurrent PEs cannot jointly overdraw the budget.
	if e.opt.MaxFirings > 0 && e.firings.Add(1) > e.opt.MaxFirings {
		e.fail(ErrMaxFirings)
		return
	}
	if e.opt.FaultInjector != nil {
		if ferr := e.opt.FaultInjector(n.Name, pe); ferr != nil {
			e.fail(ferr)
			return
		}
	}
	mh0 := res.MemoHits
	t0 := ts.begin()
	out, err := fire(e.g, n, tok.Tag, operands, e.ops, e.opt, res)
	if err != nil {
		e.fail(err)
		return
	}
	// Recorded before the outputs are routed below: the seq precedes the
	// tokens' visibility to any consumer, so the numbers linearize.
	recordStep(e.g, e.opt, &e.sched, n.Name, keys, out)
	res.Firings++
	res.PerNode[n.Name]++
	if ts != nil {
		if res.MemoHits > mh0 {
			ts.memoHit()
		}
		ts.firing(n.ID, n.Name, t0, e.inflight.Load()+int64(len(out)), len(out))
	}
	if len(out) > 0 {
		e.inflight.Add(int64(len(out)))
		for _, t := range out {
			e.route(t)
		}
	}
}

// mailbox is an unbounded MPSC token queue with blocking pop. Unbounded
// buffering is essential: cyclic graphs (loops through inctag) would deadlock
// bounded channels when a PE blocks sending to itself.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []Token
	closed bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) push(t Token) {
	b.mu.Lock()
	if !b.closed {
		b.q = append(b.q, t)
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// pop blocks until a token is available or the mailbox is closed. Remaining
// tokens are drained even after close so in-flight accounting stays exact.
func (b *mailbox) pop() (Token, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.q) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.q) == 0 {
		return Token{}, false
	}
	t := b.q[0]
	b.q = b.q[1:]
	return t, true
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
