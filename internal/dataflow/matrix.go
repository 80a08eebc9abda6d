package dataflow

// The bulk-synchronous sparse-matrix schedule (Options.Engine == EngineMatrix).
//
// Instead of taking tokens one at a time (runSequential), this engine runs
// the shared core in bulk-synchronous ticks over the plan's incidence
// matrices: a readiness sweep delivers every queued token in dense edge order
// and collects the fire-vector of ALL enabled (vertex, tag) activations, then
// a batched apply pass fires them, emitting into the edge queues the next
// sweep reads — one sweep is a sparse matrix-vector product of the incidence
// structure with the token vector ("Dataflow Graphs as Matrices", PAPERS.md;
// DESIGN.md §14).
// Termination is "fire-vector empty", cross-checked against an explicit
// in-flight token count. Wide graphs — Algorithm 2's replicated reaction
// subgraphs, Fig. 4 — are the shape where a tick that fires thousands of
// vertices amortizes scheduling to nearly nothing.

import (
	"fmt"

	"repro/internal/rt"
	"repro/internal/value"
)

// edgeQueues holds the tokens emitted in one tick until the next sweep: one
// FIFO chain per edge, threaded through a flat token vector that is reset —
// keeping its capacity — every tick, so steady-state ticks allocate nothing.
// A sweep drains every chain before the apply pass emits again, which is why
// one vector serves both sides of the tick boundary. Links are index+1; zero
// is "none".
type edgeQueues struct {
	head, tail []int32
	toks       []chainTok
}

type chainTok struct {
	val  value.Value
	tag  int64
	next int32
}

func (q *edgeQueues) push(e int32, v value.Value, tag int64) {
	q.toks = append(q.toks, chainTok{val: v, tag: tag})
	at := int32(len(q.toks))
	if q.head[e] == 0 {
		q.head[e] = at
	} else {
		q.toks[q.tail[e]-1].next = at
	}
	q.tail[e] = at
}

// matFiring is one entry of a tick's fire-vector: an enabled (vertex, tag)
// activation whose matched operands live at [off, off+nops) in the tick's
// flat operand arena.
type matFiring struct {
	node      int32
	tag       int64
	off, nops int32
}

// runMatrix executes the graph in bulk-synchronous ticks. It is
// single-threaded and deterministic: within a tick, tokens are delivered in
// dense edge order and activations fire in discovery order. The multiset of
// firings — hence Outputs, Firings, Counts and Pending — equals
// the sequential engine's (dataflow firing is confluent; DESIGN.md §14).
func runMatrix(c *core) (res *Result, err error) {
	p := c.p
	ticks, peak := int64(0), 0
	defer func() {
		if rec := recover(); rec != nil {
			err = c.panicError(rec)
		}
		res = c.finish(ticks, peak)
	}()
	links := make([]int32, 2*len(p.edgeTo))
	q := edgeQueues{head: links[:len(p.edgeTo)], tail: links[len(p.edgeTo):], toks: make([]chainTok, 0, p.seeds)}

	// inflight counts emitted-but-unconsumed tokens: +fanout per firing,
	// -nops when a firing consumes its operands, -1 when a terminal edge
	// absorbs an output. At termination it must equal the operands parked in
	// the matching table, which is exactly Result.Pending.
	inflight := 0

	// Tick 0 seeds the token vector: every const vertex fires once.
	if err := c.seed(func(e int32, v value.Value) { q.push(e, v, 0); inflight++ }); err != nil {
		return nil, err
	}

	// Per-tick scratch, reset — keeping capacity — every sweep: the
	// fire-vector and the operands (on recorded runs, keys) it references.
	var (
		fires []matFiring
		vals  []value.Value
		keys  []string
	)
	for {
		// Phase 1 — readiness sweep: deliver every queued token in dense
		// edge order; each completed operand set appends one activation to
		// the fire-vector, terminal-edge tokens are absorbed as outputs.
		peak = max(peak, len(q.toks))
		fires, vals, keys = fires[:0], vals[:0], keys[:0]
		for ei, at := range q.head {
			if at == 0 {
				continue
			}
			q.head[ei] = 0
			to := p.edgeTo[ei]
			for ; at != 0; at = q.toks[at-1].next {
				tok := Token{Val: q.toks[at-1].val, Edge: EdgeID(ei), Tag: q.toks[at-1].tag}
				if to < 0 {
					c.output(tok)
					inflight--
					continue
				}
				off := len(vals)
				var ready bool
				if vals, keys, ready = c.arrive(to, tok, vals, keys); ready {
					fires = append(fires, matFiring{node: to, tag: tok.Tag, off: int32(off), nops: int32(len(vals) - off)})
				}
			}
		}
		q.toks = q.toks[:0]

		// Eq. 1 stability: an empty fire-vector after a full sweep means no
		// vertex is enabled and no token is in motion.
		if len(fires) == 0 {
			break
		}

		// Phase 2 — batched apply: fire every activation of the vector,
		// emitting into the queues the next sweep drains.
		for _, f := range fires {
			var consumed []string
			if c.match.keyed { // the recorder keeps the slice
				consumed = append(consumed, keys[f.off:f.off+f.nops]...)
			}
			inflight -= int(f.nops)
			row, v, tag, err := c.fire(f.node, f.tag, vals[f.off:f.off+f.nops], consumed, int64(inflight))
			if err != nil {
				return nil, err
			}
			for _, e := range row {
				q.push(e, v, tag)
			}
			inflight += len(row)
		}
		ticks++
		c.ts.tick(len(fires))
	}

	// Termination cross-check, mirroring the version-idle protocol: every
	// emitted token must be accounted for as consumed, absorbed, or parked.
	if parked := c.match.pending(); parked != inflight {
		return nil, rt.Mark(rt.ErrInvalid,
			fmt.Errorf("dataflow: matrix engine idle protocol violated: %d tokens in flight, %d parked", inflight, parked))
	}
	return nil, nil
}
