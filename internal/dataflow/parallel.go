package dataflow

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/rt"
	"repro/internal/value"
)

// runParallel executes the graph on a pool of processing elements. Each PE
// runs its own core and owns the vertices whose id hashes to it — mirroring
// how dataflow runtimes virtualize PEs over cores (§II-A) — so a vertex's
// waiting operands are only ever touched by its owner and need no lock.
// Tokens are routed between PEs through unbounded mailboxes.
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
func runParallel(ctx context.Context, p *plan, r *run, opt Options) (*Result, error) {
	workers := opt.Workers
	eng := &parEngine{
		p:     p,
		boxes: make([]*mailbox, workers),
		done:  make(chan struct{}),
	}
	// One core per PE plus the coordinator's, which fires the consts.
	cores := make([]*core, workers, workers+1)
	for i := range cores {
		eng.boxes[i] = newMailbox()
		cores[i] = newCore(nil, p, r, opt, i)
	}
	coord := newCore(nil, p, r, opt, -1)
	cores = append(cores, coord)

	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			eng.fail(rt.FromContext(ctx.Err()))
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for w := range eng.boxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.peLoop(cores[w])
		}()
	}

	// Inject the const tokens, counted first so the in-flight counter cannot
	// transiently hit zero between sends; the PEs are parked until then.
	toks := make([]Token, 0, p.seeds)
	err := coord.seed(func(e int32, v value.Value) { toks = append(toks, Token{Val: v, Edge: EdgeID(e)}) })
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

	backlog := 0
	for _, b := range eng.boxes {
		backlog += b.peak
	}
	res := r.finish(workers, 0, backlog, cores...)
	if err := eng.err.Load(); err != nil {
		return res, err.(error)
	}
	return res, nil
}

type parEngine struct {
	p        *plan
	boxes    []*mailbox
	inflight atomic.Int64
	err      atomic.Value // error
	done     chan struct{}
	closed   sync.Once
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

// route enqueues a token whose in-flight slot is already counted. Tokens for
// a vertex go to its owning PE (id mod PEs); terminal tokens have no
// destination vertex, so they are spread over PEs by edge id.
func (e *parEngine) route(t Token) {
	dst := int(e.p.edgeTo[t.Edge])
	if dst < 0 {
		dst = int(t.Edge)
	}
	e.boxes[dst%len(e.boxes)].push(t)
}

// peLoop drains the PE's mailbox a backlog at a time, handing the drained
// slice back as the mailbox's next buffer.
func (e *parEngine) peLoop(c *core) {
	box := e.boxes[c.pe]
	var batch []Token
	for {
		batch = box.take(batch)
		if len(batch) == 0 {
			return
		}
		for _, tok := range batch {
			e.process(c, tok)
		}
	}
}

func (e *parEngine) process(c *core, tok Token) {
	defer func() {
		if e.inflight.Add(-1) == 0 {
			e.shutdown()
		}
	}()
	defer func() {
		// The PE pool's panic barrier: one faulty vertex operation fails the
		// run with its identity attached instead of crashing the process or
		// desynchronizing the in-flight accounting (the outer defer still
		// runs, so termination detection stays exact).
		if rec := recover(); rec != nil {
			e.fail(c.panicError(rec))
		}
	}()
	if e.err.Load() != nil {
		// Failed or canceled: drain without firing so shutdown is prompt
		// even with a deep token backlog.
		return
	}
	to := e.p.edgeTo[tok.Edge]
	if to < 0 {
		c.output(tok)
		return
	}
	operands, keys, ready := c.arrive(to, tok, c.operands, nil)
	if !ready {
		return
	}
	depth := int64(0)
	if c.ts != nil {
		depth = e.inflight.Load()
	}
	// fire records the firing before its outputs are routed below: the seq
	// precedes the tokens' visibility to any consumer.
	row, v, tag, err := c.fire(to, tok.Tag, operands, keys, depth)
	if err != nil {
		e.fail(err)
		return
	}
	if len(row) > 0 {
		e.inflight.Add(int64(len(row)))
		for _, ed := range row {
			e.route(Token{Val: v, Edge: EdgeID(ed), Tag: tag})
		}
	}
}

// mailbox is an unbounded MPSC token queue with blocking take. Unbounded
// buffering is essential: cyclic graphs (loops through inctag) would deadlock
// bounded channels when a PE blocks sending to itself.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []Token
	closed bool
	peak   int // longest backlog handed over
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
		if len(b.q) == 1 { // the owner only waits on an empty mailbox
			b.cond.Signal()
		}
	}
	b.mu.Unlock()
}

// take blocks until tokens are pending or the mailbox is closed, then swaps
// the whole backlog for the caller's spent buffer under one acquisition.
// Tokens queued before the close are still handed over, so in-flight
// accounting stays exact; an empty return means closed and drained.
func (b *mailbox) take(spent []Token) []Token {
	b.mu.Lock()
	for len(b.q) == 0 && !b.closed {
		b.cond.Wait()
	}
	batch := b.q
	b.q = spent[:0]
	b.peak = max(b.peak, len(batch))
	b.mu.Unlock()
	return batch
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
