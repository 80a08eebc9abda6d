package dataflow

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"time"

	"repro/internal/rt"
	"repro/internal/value"
)

// Token is one operand in flight: a value on an edge with an iteration tag.
// This is the paper's triplet [value, label, tag] in motion.
type Token struct {
	Val  value.Value
	Edge EdgeID
	Tag  int64
}

// TaggedValue is a program output: the value and the iteration tag it carried.
type TaggedValue struct {
	Tag int64
	Val value.Value
}

// Result reports one execution.
type Result struct {
	// Outputs collects tokens that arrived on terminal edges, keyed by edge
	// label, sorted by tag (then arrival) for determinism.
	Outputs map[string][]TaggedValue
	// Firings is the total number of vertex activations.
	Firings int64
	// Pending counts operands left waiting in vertex matching stores when
	// the program terminated: tokens that arrived on some port but whose
	// partner operands never did (typically because a steer dropped the
	// other path). In the Gamma translation these are exactly the non-output
	// elements of the stable multiset.
	Pending int
	// Ticks counts the dependency levels that fired past the const seeding:
	// the FIFO worklist's levels (runSequential), so a graph's depth past its
	// consts on an acyclic run.
	Ticks int64
	// MatchPeak is the most activations waiting in the matching table at
	// once, and QueuePeak the most tokens queued: the matching work no
	// firing count shows.
	MatchPeak, QueuePeak int
}

// Output returns the single output value for label, for the common case of
// one token per terminal edge (Fig. 1's 'm').
func (r *Result) Output(label string) (value.Value, bool) {
	vs := r.Outputs[label]
	if len(vs) == 0 {
		return value.Value{}, false
	}
	return vs[len(vs)-1].Val, true
}

// ErrMaxFirings is returned when execution exceeds Options.MaxFirings vertex
// activations; like Gamma programs, dynamic dataflow graphs with loops need
// not terminate. It wraps rt.ErrMaxSteps, the cross-runtime budget class;
// errors from RunContext additionally satisfy errors.Is against
// rt.ErrCanceled / rt.ErrDeadline (and thus context.Canceled /
// context.DeadlineExceeded) when the context stopped the run. See package rt
// for the full taxonomy.
var ErrMaxFirings = rt.Wrap("dataflow: maximum firing count exceeded", rt.ErrMaxSteps)

// ScheduleRecorder is the engines' one per-firing observer: it receives every
// vertex firing with a commit sequence number (1, 2, 3, … in firing order),
// the time the firing started, and the tokens it consumed and produced in the
// graph's own ids: vertex v of g consumed one token per input port, on edge
// in[j] into port j (the order that lets replay rebuild the operand vector
// positionally), all carrying the activation's tag, and produced one token on
// each edge of out, all carrying outTag. A token's schedule key is
// AppendTokenKey's "label@tag"; a consumed key always equals some earlier
// firing's produced key. Provenance, work/span profiles and replay are all
// folds over that order (package replay). The slices are the engine's and
// valid only during the call: implementations copy what they keep.
type ScheduleRecorder interface {
	RecordStepEdges(seq uint64, g *Graph, v NodeID, start time.Time, in []int32, tag int64, out []int32, outTag int64)
}

// EngineMatrix is the one Options.Engine value besides empty. It names the
// retired bulk-synchronous tick schedule, is still accepted, and runs the
// FIFO schedule like every run. The string equals schema.EngineMatrix.
const EngineMatrix = "matrix"

// Options configures an execution.
type Options struct {
	// Workers is ignored: every run executes on one core. It stays declared
	// only because bench/ still sets it.
	Workers int
	// Engine is empty or EngineMatrix, and either runs the one FIFO
	// schedule; any other value is rt.ErrInvalid. It stays declared only
	// because bench/ still sets it.
	Engine string
	// MaxFirings bounds total vertex activations; 0 means no bound.
	MaxFirings int64
	// FaultInjector, when set, runs before every vertex firing with the
	// vertex name and worker 0 (the one core); a non-nil return aborts the
	// run with that error, and a panic inside it exercises the panic
	// recovery. For stress tests; leave nil in production runs.
	FaultInjector rt.FaultInjector
	// Schedule, when set, receives every firing (see ScheduleRecorder). Nil
	// costs two branches per firing: the engine reads the clock only for a
	// recorder.
	Schedule ScheduleRecorder
}

// Run executes the graph until no token is in flight and returns the outputs.
// Const vertices inject their value with tag 0 at start; execution then
// follows the dataflow firing rule only.
//
// Run is RunContext with context.Background(): no deadline, no cancellation.
func Run(g *Graph, opt Options) (*Result, error) {
	return RunContext(context.Background(), g, opt)
}

// RunContext is Run under a context: the engine observes ctx before every
// firing and stops promptly, dropping in-flight tokens. Early exits of every kind — cancellation, deadline,
// firing budget, a failing vertex, a recovered panic — return a non-nil
// partial Result describing the work done up to the stop, alongside the
// classifying error (rt.ErrCanceled, rt.ErrDeadline, ErrMaxFirings, or
// *rt.PanicError; see package rt).
// The spec is judged before the context: an unknown engine or an invalid
// graph is rt.ErrInvalid even under a context that is already done.
func RunContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	if opt.Engine != "" && opt.Engine != EngineMatrix {
		return nil, rt.Mark(rt.ErrInvalid, fmt.Errorf("dataflow: unknown engine %q", opt.Engine))
	}
	p, err := g.plan()
	if err != nil {
		return nil, rt.Mark(rt.ErrInvalid, err)
	}
	if err := ctx.Err(); err != nil {
		return &Result{Outputs: map[string][]TaggedValue{}}, rt.FromContext(err)
	}
	return runSequential(newCore(ctx, p, opt))
}

// operand is one parked token in the matching table: its value and the edge
// it arrived on, which the schedule records.
type operand struct {
	val  value.Value
	edge int32
}

// portQueue is the FIFO of same-tag operands parked on one input port. A
// drained queue rewinds, so one that holds an operand at a time never grows.
type portQueue struct {
	items []operand
	head  int
}

func (q *portQueue) pop() operand {
	o := q.items[q.head]
	q.items[q.head] = operand{} // a recycled queue pins no value
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return o
}

// matchEntry is the waiting state of one (vertex, tag) activation: a queue
// per input port. At rest at least one queue is empty — a full set fires.
type matchEntry struct {
	tag   int64        // a direct slot's activation (a map entry's is its key's)
	arity int          // the ports in use; 0 on a free direct slot
	ports [2]portQueue // no vertex kind has more than two inputs
}

type matchKey struct{ slot, tag int64 }

// matchTable is the token store of one run: the dynamic dataflow firing rule
// — a vertex fires when every input port holds an operand with the same tag.
// A multi-port vertex matches its current tag in its direct entry,
// direct[vertexOp.arg], and a second tag waiting at once in the map, keyed by
// (slot, tag); while the map holds a tag it takes all of that tag's operands,
// even with the slot free. Drained map entries are recycled.
type matchTable struct {
	direct  []matchEntry
	entries map[matchKey]*matchEntry
	free    []*matchEntry
	slab    pool[matchEntry] // fresh map entries are carved from it
	used    int              // direct entries in use
	peak    int              // most activations waiting at once
}

// arrive delivers one operand, the value v on edge, to an input port of the
// activation (slot, tag). When that completes the operand set it appends the
// consumed operands' values to vals and their edges to edges in port order,
// oldest first per port, and reports true. A one-port vertex is enabled by
// arrival itself and never touches the table.
func (t *matchTable) arrive(slot int32, arity, port int, tag int64, v value.Value, edge int32, vals []value.Value, edges []int32) ([]value.Value, []int32, bool) {
	if arity == 1 {
		return append(vals, v), append(edges, edge), true
	}
	d := &t.direct[slot]
	k, e := matchKey{int64(slot), tag}, d
	if d.arity == 0 || d.tag != tag {
		if e = t.entries[k]; e == nil {
			if d.arity == 0 { // the slot is free and the map holds no part of the tag
				e, d.tag, t.used = d, tag, t.used+1
			} else {
				e = t.take()
				if t.entries == nil {
					t.entries = make(map[matchKey]*matchEntry)
				}
				t.entries[k] = e
			}
			e.arity = arity
			t.peak = max(t.peak, t.used+len(t.entries))
		}
	}
	// A multi-port vertex has two ports (Validate sees to it), and at rest
	// one is empty: the set is complete exactly when the other port holds an
	// operand, and a token behind others on its own port waits its turn.
	in, other := operand{val: v, edge: edge}, &e.ports[1-port]
	if len(other.items) == 0 {
		e.ports[port].items = append(e.ports[port].items, in)
		return vals, edges, false
	}
	o := [2]operand{}
	o[port], o[1-port] = in, other.pop()
	vals, edges = append(vals, o[0].val, o[1].val), append(edges, o[0].edge, o[1].edge)
	switch {
	case len(other.items) > 0:
	case e == d:
		d.arity, t.used = 0, t.used-1
	default:
		delete(t.entries, k)
		t.free = append(t.free, e)
	}
	return vals, edges, true
}

// take returns a map entry, recycled if possible.
func (t *matchTable) take() (e *matchEntry) {
	if n := len(t.free); n > 0 {
		e, t.free = t.free[n-1], t.free[:n-1]
		return e
	}
	return &t.slab.take(1)[0]
}

// pending totals the operands parked in the table.
func (t *matchTable) pending() int {
	n := 0
	count := func(e *matchEntry) {
		for i := range e.ports {
			n += len(e.ports[i].items) - e.ports[i].head
		}
	}
	for _, e := range t.entries {
		count(e)
	}
	for i := range t.direct {
		count(&t.direct[i])
	}
	return n
}

// AppendTokenKey appends the schedule key of a token on edge e with the tag to
// b: "label@tag". The key does not encode the value, which is why dataflow
// replay re-executes the graph instead of reconstructing tokens from keys.
func AppendTokenKey(b []byte, g *Graph, e EdgeID, tag int64) []byte {
	return strconv.AppendInt(append(append(b, g.Edges[e].Label...), '@'), tag, 10)
}

// ReplayFire computes one vertex activation outside an engine: the replay
// verifier's way to re-execute a recorded firing.
// The returned tokens are the activation's emissions in port fan-out order.
// An operand vector that is not one operand per input port is rt.ErrInvalid.
func ReplayFire(g *Graph, n *Node, tag int64, operands []value.Value) ([]Token, error) {
	p, err := g.plan()
	if err != nil {
		return nil, rt.Mark(rt.ErrInvalid, err)
	}
	if arity := int(p.vert[n.ID].arity); len(operands) != arity {
		return nil, rt.Mark(rt.ErrInvalid, fmt.Errorf("dataflow: vertex %s takes %d operands, got %d", n.Name, arity, len(operands)))
	}
	port, v, outTag, err := p.route(int32(n.ID), tag, operands)
	if err != nil {
		return nil, err
	}
	row := p.row(int32(n.ID), port)
	toks := make([]Token, len(row))
	for i, e := range row {
		toks[i] = Token{Val: v, Edge: EdgeID(e), Tag: outTag}
	}
	return toks, nil
}

// isPure reports whether the vertex kind computes a value from operands
// alone.
func (k NodeKind) isPure() bool {
	return k == KindArith || k == KindCompare || k == KindUnaryOp
}

// route computes the activation of vertex id down to its single emission:
// output port, value, tag. Pure kinds go through the op table; the routing
// kinds (const, steer, inctag, copy, settag) move an operand.
func (p *plan) route(id int32, tag int64, operands []value.Value) (int, value.Value, int64, error) {
	vo := p.vert[id]
	switch vo.kind {
	case KindArith, KindCompare, KindUnaryOp:
		v, err := p.evalPure(id, vo, operands)
		return 0, v, tag, err
	case KindConst:
		return 0, p.vals[vo.arg], tag, nil
	case KindSteer:
		ctl, err := operands[1].Truthy()
		if err != nil {
			return 0, value.Value{}, 0, fmt.Errorf("dataflow: steer %s control: %w", p.name(id), err)
		}
		if ctl {
			return PortTrue, operands[0], tag, nil
		}
		return PortFalse, operands[0], tag, nil
	case KindIncTag:
		return 0, operands[0], tag + 1, nil
	case KindCopy:
		return 0, operands[0], tag, nil
	case KindSetTag:
		return 0, operands[0], 0, nil
	}
	return 0, value.Value{}, 0, fmt.Errorf("dataflow: node %s has invalid kind", p.name(id))
}

// core is the firing state of one run over the graph's plan: the matching
// table (match.arrive), the one check → route → record → count step (fire), const
// seeding (seed) and the Result fold (finish). The schedule (runSequential)
// picks the next token and queues the returned emission row.
type core struct {
	*runState
	p        *plan
	opt      Options
	ctx      context.Context   // consulted before every firing
	operands [2]value.Value    // scratch for one activation's operands
	inEdges  [2]int32          // and for the edges they arrived on
	outSlab  pool[TaggedValue] // each series' first token
	site     int32             // the vertex being fired (-1: none yet), for the panic report
	fired    int64             // firings so far; the schedule number of the last
}

// runState is what a run sizes from the plan and a clean run hands on through
// plan.spare, to one run at a time: the worklist, the token store, the series
// by output slot and how many hold a token (the next first-token slab's size).
type runState struct {
	q      ring
	match  matchTable
	series [][]TaggedValue
	filled int
}

func newCore(ctx context.Context, p *plan, opt Options) *core {
	st := p.spare.Swap(nil)
	if st == nil {
		// The worklist starts at the seed tokens; fan-out beyond them grows it.
		st = &runState{q: ring{buf: make([]Token, 1<<bits.Len(uint(max(p.seeds, 64)-1)))},
			match: matchTable{direct: make([]matchEntry, p.multiPort)}, series: make([][]TaggedValue, len(p.labels))}
	}
	c := &core{runState: st, p: p, opt: opt, ctx: ctx, site: -1, outSlab: pool[TaggedValue]{free: make([]TaggedValue, st.filled)}}
	c.q.peak, c.match.peak, c.filled = 0, 0, 0
	return c
}

// panicError wraps a recovered panic with the vertex that was firing.
func (c *core) panicError(rec any) error {
	site := ""
	if c.site >= 0 {
		site = c.p.name(c.site)
	}
	return rt.NewPanicError("dataflow", site, 0, rec)
}

// output absorbs a token that arrived on the terminal edge of output slot.
func (c *core) output(slot int32, tok Token) {
	vs := c.series[slot]
	if vs == nil { // most labels see one token: a slot of the slab
		vs, c.filled = c.outSlab.take(1)[:0], c.filled+1
	}
	c.series[slot] = append(vs, TaggedValue{Tag: tok.Tag, Val: tok.Val})
}

// overBudget reports whether Options.MaxFirings forbids one more firing.
func (c *core) overBudget() bool {
	return c.opt.MaxFirings > 0 && c.fired >= c.opt.MaxFirings
}

// fire runs one enabled activation: context, budget and fault injector are
// consulted, then the vertex is committed. It returns the emission — out-edge
// row, value, tag — for the schedule to queue.
func (c *core) fire(id int32, tag int64, operands []value.Value, in []int32) ([]int32, value.Value, int64, error) {
	c.site = id
	var err error
	if c.ctx.Err() != nil {
		err = rt.FromContext(c.ctx.Err())
	} else if c.overBudget() {
		err = ErrMaxFirings
	} else if c.opt.FaultInjector != nil {
		err = c.opt.FaultInjector(c.p.name(id), 0)
	}
	if err != nil {
		return nil, value.Value{}, 0, err
	}
	return c.commit(id, tag, operands, in)
}

// commit is the package's one route → record → count sequence.
func (c *core) commit(id int32, tag int64, operands []value.Value, in []int32) ([]int32, value.Value, int64, error) {
	var t0 time.Time
	if c.opt.Schedule != nil {
		t0 = time.Now()
	}
	port, v, outTag, err := c.p.route(id, tag, operands)
	if err != nil {
		return nil, value.Value{}, 0, err
	}
	row := c.p.row(id, port)
	c.fired++
	if c.opt.Schedule != nil {
		c.opt.Schedule.RecordStepEdges(uint64(c.fired), c.p.g, NodeID(id), t0, in, tag, row, outTag)
	}
	if afterCommit != nil {
		afterCommit(c)
	}
	return row, v, outTag, nil
}

// afterCommit is a test hook: the differentials point it at the matching
// table's invariants walk so every commit of their runs is checked.
var afterCommit func(c *core)

// seed fires every const vertex once with tag 0 and queues its tokens on the
// worklist. Consts fire before any token is routed, so the schedule starts
// with them in node order, and they draw on the firing budget.
func (c *core) seed() error {
	for _, id := range c.p.consts {
		c.site = id
		if c.overBudget() {
			return ErrMaxFirings
		}
		row, v, _, _ := c.commit(id, 0, nil, nil) // a const firing cannot fail
		for _, e := range row {
			c.q.push(Token{Val: v, Edge: EdgeID(e)})
		}
	}
	return nil
}

// finish folds the core into the run's Result — on every exit path, so an
// early stop reports the work done up to it.
func (c *core) finish(ticks int64) *Result {
	res := &Result{Outputs: make(map[string][]TaggedValue, c.filled), Firings: c.fired,
		Pending: c.match.pending(), Ticks: ticks, MatchPeak: c.match.peak, QueuePeak: c.q.peak}
	for slot, vs := range c.series {
		if vs == nil {
			continue
		}
		if len(vs) > 1 {
			sort.SliceStable(vs, func(i, j int) bool { return vs[i].Tag < vs[j].Tag })
		}
		res.Outputs[c.p.labels[slot]], c.series[slot] = vs, nil
	}
	return res
}

// ring is the sequential worklist: a power-of-two circular buffer, so a
// popped slot is reused instead of stranded at the front of a slice.
type ring struct {
	buf           []Token
	head, n, peak int
}

func (r *ring) push(t Token) {
	if r.n == len(r.buf) {
		buf := make([]Token, max(64, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
	r.peak = max(r.peak, r.n)
}

func (r *ring) pop() Token {
	t := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

// runSequential is the deterministic FIFO schedule: a worklist of tokens,
// each delivered to its consumer, firing vertices as their operand sets
// complete; a vertex panic is recovered into *rt.PanicError with the partial
// Result preserved. FIFO is breadth-first — the seed tokens are level 0 and
// a firing's emissions queue behind every token of its own level — so a level
// that fires is one tick (Result.Ticks): left counts the level's tokens still
// queued and mark the firings before it.
func runSequential(c *core) (res *Result, err error) {
	p, q := c.p, &c.q
	ticks := int64(0)
	defer func() {
		if rec := recover(); rec != nil {
			err = c.panicError(rec)
		}
		// A run that stopped early or left an operand parked drops its state;
		// a clean one leaves it empty but for the worklist's stale tokens.
		if res = c.finish(ticks); err == nil && res.Pending == 0 {
			clear(c.q.buf)
			p.spare.Store(c.runState)
		}
	}()
	if err := c.seed(); err != nil {
		return nil, err
	}
	// inflight counts emitted-but-unconsumed tokens: +fan-out per firing,
	// -arity per firing, -1 per output. At termination it must equal the
	// operands parked in the matching table, which is exactly Result.Pending.
	inflight, left, mark := q.n, q.n, c.fired
	for {
		if left == 0 {
			if c.fired > mark {
				ticks++
			}
			if q.n == 0 {
				break
			}
			left, mark = q.n, c.fired
		}
		left--
		tok := q.pop()
		er := p.edges[tok.Edge]
		if er.to < 0 {
			c.output(-1-er.to, tok)
			inflight--
			continue
		}
		vo := p.vert[er.to]
		operands, in, ready := c.match.arrive(vo.arg, int(vo.arity), int(er.port), tok.Tag, tok.Val, int32(tok.Edge), c.operands[:0], c.inEdges[:0])
		if !ready {
			continue
		}
		inflight -= len(operands)
		row, v, tag, err := c.fire(er.to, tok.Tag, operands, in)
		if err != nil {
			return nil, err
		}
		for _, e := range row {
			q.push(Token{Val: v, Edge: EdgeID(e), Tag: tag})
		}
		inflight += len(row)
	}

	// Termination cross-check, the version-idle protocol: every emitted
	// token must be accounted for as consumed, absorbed, or parked.
	if parked := c.match.pending(); parked != inflight {
		return nil, rt.Mark(rt.ErrInvalid,
			fmt.Errorf("dataflow: idle protocol violated: %d tokens in flight, %d parked", inflight, parked))
	}
	return nil, nil
}
