package dataflow

// The bulk-synchronous sparse-matrix engine (Options.Engine == EngineMatrix).
//
// Instead of scheduling tokens one at a time (runSequential) or partitioning
// vertices over PE goroutines (runParallel), this engine represents the graph
// as two CSR-style sparse incidence matrices over the dense node/edge ids —
// producer→edge and edge→consumer — and executes in bulk-synchronous ticks:
// a readiness sweep delivers every queued token and computes the fire-vector
// of ALL enabled (vertex, tag) activations, then a batched apply pass fires
// them, emitting into the next tick's per-edge queues. Termination is
// "fire-vector empty", cross-checked against an explicit in-flight token
// count (the matrix analogue of the parallel runtime's version-idle
// protocol). The design follows ROADMAP item 3, grounded in "Dataflow Graphs
// as Matrices and Programming with Higher-order Matrix Elements" (PAPERS.md):
// one sweep is a sparse matrix-vector product of the incidence structure with
// the token vector. Wide graphs — Algorithm 2's replicated reaction
// subgraphs over big multisets, Fig. 4 — are exactly the shape where a tick
// that fires thousands of vertices amortizes scheduling to nearly nothing.

import (
	"context"
	"fmt"

	"repro/internal/rt"
	"repro/internal/value"
)

// matTok is one token parked on an edge queue between ticks. The edge is the
// queue's index, so only the value and the iteration tag are stored.
type matTok struct {
	val value.Value
	tag int64
}

// matFiring is one entry of a tick's fire-vector: an enabled (vertex, tag)
// activation whose matched operands live at [off, off+nops) in the tick's
// flat operand arena.
type matFiring struct {
	node NodeID
	tag  int64
	off  int32
	nops int32
}

// matProgram is the incidence form of a Graph, built once per run. Both
// matrices are CSR: the producer→edge matrix maps a (node, output port) row
// to its out-edge ids, and the edge→consumer matrix maps an edge to its
// single consumer (or -1 for a terminal edge).
type matProgram struct {
	// portBase[n] is the first flat output-port index of node n; the row of
	// flat port p is outEdges[outStart[p]:outStart[p+1]].
	portBase []int32
	outStart []int32
	outEdges []EdgeID
	// edgeTo[e] is the consumer node of edge e (-1 terminal); edgePort[e] its
	// input port.
	edgeTo   []int32
	edgePort []int32
}

func buildMatProgram(g *Graph) *matProgram {
	mp := &matProgram{
		portBase: make([]int32, len(g.Nodes)+1),
		edgeTo:   make([]int32, len(g.Edges)),
		edgePort: make([]int32, len(g.Edges)),
	}
	flat := 0
	for i, n := range g.Nodes {
		mp.portBase[i] = int32(flat)
		flat += len(n.Out)
	}
	mp.portBase[len(g.Nodes)] = int32(flat)
	mp.outStart = make([]int32, flat+1)
	total := 0
	for _, n := range g.Nodes {
		for p, edges := range n.Out {
			mp.outStart[int(mp.portBase[n.ID])+p] = int32(total)
			total += len(edges)
		}
	}
	mp.outStart[flat] = int32(total)
	mp.outEdges = make([]EdgeID, 0, total)
	for _, n := range g.Nodes {
		for _, edges := range n.Out {
			mp.outEdges = append(mp.outEdges, edges...)
		}
	}
	for _, e := range g.Edges {
		if e.To == NoNode {
			mp.edgeTo[e.ID] = -1
		} else {
			mp.edgeTo[e.ID] = int32(e.To)
			mp.edgePort[e.ID] = int32(e.ToPort)
		}
	}
	return mp
}

// row returns the out-edge ids of node n's output port.
func (mp *matProgram) row(n *Node, port int) []EdgeID {
	fp := int(mp.portBase[n.ID]) + port
	return mp.outEdges[mp.outStart[fp]:mp.outStart[fp+1]]
}

// emit fans a routed value out to every edge of the port's row, appending to
// the given tick's queues. Returns the number of tokens emitted.
func (mp *matProgram) emit(q [][]matTok, n *Node, port int, v value.Value, tag int64) int {
	row := mp.row(n, port)
	for _, e := range row {
		q[e] = append(q[e], matTok{val: v, tag: tag})
	}
	return len(row)
}

// producedKeys names the tokens an emission produced, for the schedule.
func (mp *matProgram) producedKeys(g *Graph, n *Node, port int, tag int64) []string {
	row := mp.row(n, port)
	keys := make([]string, len(row))
	for i, e := range row {
		keys[i] = TokenKey(g, Token{Edge: e, Tag: tag})
	}
	return keys
}

// runMatrix executes the graph in bulk-synchronous ticks. It is
// single-threaded and deterministic: within a tick, tokens are delivered in
// dense edge order and activations fire in discovery order, so the firing
// sequence is a pure function of the graph. The multiset of firings — and
// hence Outputs, Firings, PerNode, MemoHits and Pending — equals the
// sequential engine's (dataflow firing is confluent; see DESIGN.md §14 for
// the argument against Eq. 1 stability).
func runMatrix(ctx context.Context, g *Graph, opt Options) (res *Result, err error) {
	res = newResult(1)
	site := ""
	defer func() {
		if rec := recover(); rec != nil {
			err = rt.NewPanicError("dataflow", site, 0, rec)
		}
	}()
	mp := buildMatProgram(g)
	ops := compilePureOps(g)
	ts := newDFSink(opt, g, 0)
	// keyed materializes token keys for the schedule recorder; schedSeq
	// numbers firings in tick order (the engine is single-threaded, so a
	// plain counter is already a linearization).
	keyed := opt.Schedule != nil
	var schedSeq uint64

	stores := make([]store, len(g.Nodes))
	for i := range stores {
		stores[i] = make(store)
	}

	// cur holds the tokens this tick's sweep consumes; the apply pass emits
	// into next; the slices swap at the tick boundary. Queues are truncated,
	// not reallocated, so steady-state ticks allocate nothing.
	cur := make([][]matTok, len(g.Edges))
	next := make([][]matTok, len(g.Edges))

	// Arena-backed per-tick scratch (the PR-6 arena discipline): the
	// fire-vector and the operand values it references live in flat slices
	// reset to length zero — keeping their capacity — every sweep.
	var (
		fires []matFiring
		vals  []value.Value
		keys  []string // consumed-token keys, recorded runs only
	)

	// inflight counts emitted-but-unconsumed tokens: +fanout per firing,
	// -nops when a firing consumes its operands, -1 when a terminal edge
	// absorbs an output. It is the matrix analogue of the parallel runtime's
	// in-flight counter: at termination it must equal the operands parked in
	// the matching stores, which is exactly Result.Pending.
	inflight := 0

	// Tick 0 seeds the token vector: every const vertex fires once with
	// tag 0, emitting straight into the flat edge queues (initialTokens for
	// the matrix layout).
	for _, n := range g.Nodes {
		if n.Kind != KindConst {
			continue
		}
		site = n.Name
		if overBudget(opt, res.Firings) {
			return res, ErrMaxFirings
		}
		t0 := ts.begin()
		emitted := mp.emit(cur, n, 0, n.Init, 0)
		if keyed {
			schedSeq++
			opt.Schedule.RecordStep(schedSeq, n.Name, nil, mp.producedKeys(g, n, 0, 0))
		}
		res.Firings++
		res.PerNode[n.Name]++
		inflight += emitted
		ts.firing(n.ID, n.Name, t0, int64(inflight), emitted)
	}

	for {
		// Phase 1 — readiness sweep: deliver every queued token into its
		// consumer's matching store in dense edge order; each completed
		// operand set appends one activation to the fire-vector, with its
		// operands copied into the flat arena. Terminal-edge tokens are
		// absorbed as outputs here.
		fires = fires[:0]
		vals = vals[:0]
		if keyed {
			keys = keys[:0]
		}
		for ei := range cur {
			q := cur[ei]
			if len(q) == 0 {
				continue
			}
			to := mp.edgeTo[ei]
			if to < 0 {
				label := g.Edges[ei].Label
				for _, tk := range q {
					res.Outputs[label] = append(res.Outputs[label], TaggedValue{Tag: tk.tag, Val: tk.val})
				}
				inflight -= len(q)
				cur[ei] = q[:0]
				continue
			}
			n := g.Nodes[to]
			port := int(mp.edgePort[ei])
			st := stores[to]
			for _, tk := range q {
				key := ""
				if keyed {
					key = TokenKey(g, Token{Edge: EdgeID(ei), Tag: tk.tag})
				}
				w, ok := st[tk.tag]
				if !ok {
					w = &waiting{ports: make([][]operand, len(n.In))}
					st[tk.tag] = w
				}
				w.ports[port] = append(w.ports[port], operand{val: tk.val, key: key})
				ready := true
				for _, pq := range w.ports {
					if len(pq) == 0 {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				off := int32(len(vals))
				empty := true
				for i := range w.ports {
					vals = append(vals, w.ports[i][0].val)
					if keyed {
						keys = append(keys, w.ports[i][0].key)
					}
					w.ports[i] = w.ports[i][1:]
					if len(w.ports[i]) > 0 {
						empty = false
					}
				}
				if empty {
					delete(st, tk.tag)
				}
				fires = append(fires, matFiring{node: NodeID(to), tag: tk.tag, off: off, nops: int32(len(w.ports))})
			}
			cur[ei] = q[:0]
		}

		// Eq. 1 stability: an empty fire-vector after a full sweep means no
		// vertex is enabled and no token is in motion — the program is
		// stable.
		if len(fires) == 0 {
			break
		}

		// Phase 2 — batched apply: fire every activation of the vector,
		// emitting into the next tick's queues.
		for _, f := range fires {
			n := g.Nodes[f.node]
			site = n.Name
			if cerr := ctx.Err(); cerr != nil {
				return res, rt.FromContext(cerr)
			}
			if overBudget(opt, res.Firings) {
				return res, ErrMaxFirings
			}
			if opt.FaultInjector != nil {
				if ferr := opt.FaultInjector(n.Name, 0); ferr != nil {
					return res, ferr
				}
			}
			operands := vals[f.off : f.off+f.nops]
			mh0 := res.MemoHits
			t0 := ts.begin()
			port, v, outTag, ferr := route(n, f.tag, operands, ops, opt, res)
			if ferr != nil {
				return res, ferr
			}
			emitted := mp.emit(next, n, port, v, outTag)
			if keyed {
				consumed := append([]string(nil), keys[f.off:f.off+f.nops]...)
				schedSeq++
				opt.Schedule.RecordStep(schedSeq, n.Name, consumed, mp.producedKeys(g, n, port, outTag))
			}
			res.Firings++
			res.PerNode[n.Name]++
			inflight += emitted - int(f.nops)
			if ts != nil {
				if res.MemoHits > mh0 {
					ts.memoHit()
				}
				ts.firing(n.ID, n.Name, t0, int64(inflight), emitted)
			}
		}
		res.Ticks++
		ts.tick(len(fires))
		cur, next = next, cur
	}

	// Termination cross-check, mirroring the version-idle protocol: every
	// emitted token must be accounted for as consumed, absorbed, or parked.
	res.Pending = countPending(stores)
	if res.Pending != inflight {
		return res, rt.Mark(rt.ErrInvalid,
			fmt.Errorf("dataflow: matrix engine idle protocol violated: %d tokens in flight, %d parked", inflight, res.Pending))
	}
	sortOutputs(res)
	return res, nil
}
