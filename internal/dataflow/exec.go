package dataflow

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
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
	// Counts holds the activations of every vertex, by NodeID (nil when the
	// context was done before the run); PerNode folds it by vertex name.
	Counts []int64
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
	g                    *Graph // names Counts for PerNode
}

// PerNode counts activations per vertex name, over the vertices that fired.
func (r *Result) PerNode() map[string]int64 {
	m := make(map[string]int64)
	for id, k := range r.Counts {
		if k > 0 {
			m[r.g.Nodes[id].Name] += k
		}
	}
	return m
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
// the time the firing started, and opaque keys identifying the tokens it
// consumed (in input-port order, which is what lets replay rebuild the
// operand vector positionally) and produced; a consumed key always equals
// some earlier firing's produced key.
// Provenance, work/span profiles and replay are all folds over that order
// (package replay). The engine hands over ownership of the key slices —
// implementations may retain them without copying.
type ScheduleRecorder interface {
	RecordStep(seq uint64, name string, start time.Time, consumed, produced []string)
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
		return &Result{Outputs: map[string][]TaggedValue{}, g: g}, rt.FromContext(err)
	}
	return runSequential(newCore(ctx, p, opt))
}

// operand is one parked token in the matching table: its value plus the token
// key the schedule records (empty when no recorder is attached).
type operand struct {
	val value.Value
	key string
}

// portQueue is the FIFO of same-tag operands parked on one input port. A
// drained queue rewinds, so one that holds an operand at a time never grows.
type portQueue struct {
	items []operand
	head  int
}

func (q *portQueue) pop() operand {
	o := q.items[q.head]
	q.items[q.head] = operand{} // a recycled queue pins no value or key
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
	keyed   bool             // operands carry schedule keys
	peak    int              // most activations waiting at once
}

// arrive delivers one operand to an input port of the activation (slot, tag).
// When that completes the operand set it appends the consumed operands (on a
// keyed table also their keys) to vals and keys in port order, oldest first
// per port, and reports true. A one-port vertex is enabled by arrival itself
// and never touches the table.
func (t *matchTable) arrive(slot int32, arity, port int, tag int64, v value.Value, key string, vals []value.Value, keys []string) ([]value.Value, []string, bool) {
	if arity == 1 {
		if t.keyed {
			keys = append(keys, key)
		}
		return append(vals, v), keys, true
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
	in, other := operand{val: v, key: key}, &e.ports[1-port]
	if len(other.items) == 0 {
		e.ports[port].items = append(e.ports[port].items, in)
		return vals, keys, false
	}
	o := [2]operand{}
	o[port], o[1-port] = in, other.pop()
	vals = append(vals, o[0].val, o[1].val)
	if t.keyed {
		keys = append(keys, o[0].key, o[1].key)
	}
	switch {
	case len(other.items) > 0:
	case e == d:
		d.arity, t.used = 0, t.used-1
	default:
		delete(t.entries, k)
		t.free = append(t.free, e)
	}
	return vals, keys, true
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

// TokenKey renders the schedule name of a token: "label@tag", the token's
// edge label and iteration tag. Unlike a multiset fingerprint the key does
// not encode the value, which is why dataflow replay re-executes the graph
// instead of reconstructing tokens from keys.
func TokenKey(g *Graph, t Token) string {
	return fmt.Sprintf("%s@%d", g.Edges[t.Edge].Label, t.Tag)
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
	p        *plan
	opt      Options
	ctx      context.Context // consulted before every firing
	match    matchTable
	operands []value.Value     // scratch for one activation's operands (two at most)
	series   [][]TaggedValue   // the tokens absorbed, by output slot
	outSlab  pool[TaggedValue] // each series' first token
	filled   int               // the series holding a token
	counts   []int64           // firings per vertex, by NodeID
	site     int32             // the vertex being fired (-1: none yet), for the panic report
	fired    int64             // firings so far; the schedule number of the last
}

func newCore(ctx context.Context, p *plan, opt Options) *core {
	return &core{
		p: p, opt: opt, ctx: ctx, site: -1,
		match:    matchTable{keyed: opt.Schedule != nil, direct: make([]matchEntry, p.multiPort)},
		operands: make([]value.Value, 0, 2),
		series:   make([][]TaggedValue, len(p.labels)),
		counts:   make([]int64, len(p.vert)),
	}
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
func (c *core) fire(id int32, tag int64, operands []value.Value, keys []string) ([]int32, value.Value, int64, error) {
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
	return c.commit(id, tag, operands, keys)
}

// commit is the package's one route → record → count sequence.
func (c *core) commit(id int32, tag int64, operands []value.Value, keys []string) ([]int32, value.Value, int64, error) {
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
	c.counts[id]++
	if c.opt.Schedule != nil {
		produced := make([]string, len(row))
		for i, e := range row {
			produced[i] = TokenKey(c.p.g, Token{Edge: EdgeID(e), Tag: outTag})
		}
		c.opt.Schedule.RecordStep(uint64(c.fired), c.p.name(id), t0, keys, produced)
	}
	if afterCommit != nil {
		afterCommit(c)
	}
	return row, v, outTag, nil
}

// afterCommit is a test hook: the differentials point it at the matching
// table's invariants walk so every commit of their runs is checked.
var afterCommit func(c *core)

// seed fires every const vertex once with tag 0 and queues its tokens on q.
// Consts fire before any token is routed, so the schedule starts with them
// in node order, and they draw on the firing budget.
func (c *core) seed(q *ring) error {
	for _, id := range c.p.consts {
		c.site = id
		if c.overBudget() {
			return ErrMaxFirings
		}
		row, v, _, _ := c.commit(id, 0, nil, nil) // a const firing cannot fail
		for _, e := range row {
			q.push(Token{Val: v, Edge: EdgeID(e)})
		}
	}
	return nil
}

// finish folds the core into the run's Result — on every exit path, so an
// early stop reports the work done up to it.
func (c *core) finish(ticks int64, queuePeak int) *Result {
	res := &Result{Outputs: make(map[string][]TaggedValue, c.filled), Firings: c.fired, Counts: c.counts,
		Pending: c.match.pending(), Ticks: ticks, MatchPeak: c.match.peak, QueuePeak: queuePeak, g: c.p.g}
	for slot, vs := range c.series {
		if len(vs) > 1 {
			sort.SliceStable(vs, func(i, j int) bool { return vs[i].Tag < vs[j].Tag })
		}
		if vs != nil {
			res.Outputs[c.p.labels[slot]] = vs
		}
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
	p := c.p
	// The worklist starts at the seed tokens; fan-out beyond them grows it.
	q := ring{buf: make([]Token, 1<<bits.Len(uint(max(p.seeds, 64)-1)))}
	ticks := int64(0)
	defer func() {
		if rec := recover(); rec != nil {
			err = c.panicError(rec)
		}
		res = c.finish(ticks, q.peak)
	}()
	if err := c.seed(&q); err != nil {
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
		key := ""
		if c.match.keyed {
			key = TokenKey(p.g, tok)
		}
		vo := p.vert[er.to]
		operands, keys, ready := c.match.arrive(vo.arg, int(vo.arity), int(er.port), tok.Tag, tok.Val, key, c.operands, nil)
		if !ready {
			continue
		}
		inflight -= len(operands)
		row, v, tag, err := c.fire(er.to, tok.Tag, operands, keys)
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
