package dataflow

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/rt"
	"repro/internal/telemetry"
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
	// PerNode counts activations per vertex name.
	PerNode map[string]int64
	// MemoHits counts firings answered from Options.Memo.
	MemoHits int64
	// Pending counts operands left waiting in vertex matching stores when
	// the program terminated: tokens that arrived on some port but whose
	// partner operands never did (typically because a steer dropped the
	// other path). In the Gamma translation these are exactly the non-output
	// elements of the stable multiset.
	Pending int
	// Workers echoes the PE count used.
	Workers int
	// Ticks counts the bulk-synchronous rounds of the matrix engine: one
	// readiness sweep plus one batched apply pass per tick. Zero under the
	// token-at-a-time engines.
	Ticks int64
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

// Memo caches pure vertex computations — the instruction-reuse mechanism the
// paper cites as a benefit of mapping Gamma onto dataflow (DF-DTM [3]). Keys
// identify a vertex and its operand values; implementations must be safe for
// concurrent use when Workers > 1.
type Memo interface {
	LookupFiring(key string) (value.Value, bool)
	StoreFiring(key string, v value.Value)
}

// ScheduleRecorder is the engines' one per-firing observer: it receives every
// vertex firing with a commit sequence number and opaque keys identifying
// the tokens it consumed (in input-port order, which is what lets replay
// rebuild the operand vector positionally) and produced; a consumed key
// always equals some earlier firing's produced key. Numbers are drawn before
// a firing's output tokens become visible to any consumer, so sorting the
// records by seq yields a sequential firing order that is a valid
// linearization even of the parallel PE pool; provenance, work/span profiles
// and replay are all folds over that order (package replay). Calls arrive
// concurrently and out of seq order when Workers > 1, so implementations must
// be safe for concurrent use. The engine hands over ownership of the key
// slices — implementations may retain them without copying.
type ScheduleRecorder interface {
	RecordStep(seq uint64, name string, consumed, produced []string)
}

// EngineMatrix selects the bulk-synchronous sparse-matrix engine (matrix.go)
// via Options.Engine. The string equals schema.EngineMatrix so specs pass
// through the facade and service unchanged.
const EngineMatrix = "matrix"

// Options configures an execution.
type Options struct {
	// Workers is the number of processing elements (PEs). 0 or 1 selects the
	// deterministic sequential scheduler; more selects the parallel runtime
	// where vertices are partitioned over PE goroutines.
	Workers int
	// Engine overrides the Workers-driven scheduler choice. Empty leaves the
	// choice to Workers; EngineMatrix selects the bulk-synchronous
	// sparse-matrix engine (which is single-threaded — Workers is ignored and
	// echoed as 1). Any other value is rt.ErrInvalid.
	Engine string
	// MaxFirings bounds total vertex activations; 0 means no bound.
	MaxFirings int64
	// Memo, when set, caches the results of pure vertices (arithmetic,
	// comparison, unary): a hit skips the computation and its WorkFactor.
	Memo Memo
	// WorkFactor emulates instruction cost: each pure-vertex firing spins
	// this many iterations before computing. 0 means no extra work. It
	// exists so reuse and scaling benchmarks measure a realistic
	// computation-to-overhead ratio rather than nanosecond additions.
	WorkFactor int
	// FaultInjector, when set, runs before every vertex firing with the
	// vertex name and PE index; a non-nil return aborts the run with that
	// error, and a panic inside it exercises the PE pool's panic recovery.
	// For stress tests; leave nil in production runs.
	FaultInjector rt.FaultInjector
	// Recorder, when set, receives the execution's telemetry: one event
	// track per PE (firing spans with latency and token depth) and registry
	// counters mirroring the Result fields increment for increment. Nil
	// costs one branch per record site on the hot paths.
	Recorder *telemetry.Recorder
	// Schedule, when set, receives every firing (see ScheduleRecorder). Nil
	// costs one branch per firing.
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

// RunContext is Run under a context: cancellation and deadline propagate to
// every PE, which observe ctx between firings and stop promptly, dropping
// in-flight tokens. Early exits of every kind — cancellation, deadline,
// firing budget, a failing vertex, a recovered panic — return a non-nil
// partial Result describing the work done up to the stop, alongside the
// classifying error (rt.ErrCanceled, rt.ErrDeadline, ErrMaxFirings, or
// *rt.PanicError; see package rt).
func RunContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, rt.Mark(rt.ErrInvalid, err)
	}
	if err := ctx.Err(); err != nil {
		workers := opt.Workers
		if workers < 1 {
			workers = 1
		}
		return newResult(workers), rt.FromContext(err)
	}
	switch opt.Engine {
	case "":
		// Workers decides below.
	case EngineMatrix:
		return runMatrix(ctx, g, opt)
	default:
		return nil, rt.Mark(rt.ErrInvalid, fmt.Errorf("dataflow: unknown engine %q", opt.Engine))
	}
	if opt.Workers <= 1 {
		return runSequential(ctx, g, opt)
	}
	return runParallel(ctx, g, opt)
}

// operand is one queued token in a matching store: its value plus the token
// key the schedule records (empty when no recorder is attached).
type operand struct {
	val value.Value
	key string
}

// waiting is the tag-matching store entry for one (vertex, tag): a token
// queue per input port. The vertex fires when every port has a token with
// this tag — the dynamic dataflow firing rule.
type waiting struct {
	ports [][]operand
}

// store is the per-vertex matching store. In the parallel runtime each store
// is owned by exactly one PE, so no locking is needed.
type store map[int64]*waiting

// deliver adds a token to the store; when the vertex becomes fireable it
// returns the consumed operand values and keys.
func (s store) deliver(n *Node, port int, tag int64, v value.Value, key string) ([]value.Value, []string, bool) {
	w, ok := s[tag]
	if !ok {
		w = &waiting{ports: make([][]operand, len(n.In))}
		s[tag] = w
	}
	w.ports[port] = append(w.ports[port], operand{val: v, key: key})
	for _, q := range w.ports {
		if len(q) == 0 {
			return nil, nil, false
		}
	}
	operands := make([]value.Value, len(w.ports))
	keys := make([]string, len(w.ports))
	empty := true
	for i := range w.ports {
		operands[i] = w.ports[i][0].val
		keys[i] = w.ports[i][0].key
		w.ports[i] = w.ports[i][1:]
		if len(w.ports[i]) > 0 {
			empty = false
		}
	}
	if empty {
		delete(s, tag)
	}
	return operands, keys, true
}

// TokenKey renders the schedule name of a token: "label@tag", the token's
// edge label and iteration tag. Unlike a multiset fingerprint the key does
// not encode the value, which is why dataflow replay re-executes the graph
// instead of reconstructing tokens from keys.
func TokenKey(g *Graph, t Token) string {
	return fmt.Sprintf("%s@%d", g.Edges[t.Edge].Label, t.Tag)
}

// recordStep reports one firing, with its commit sequence number, to the
// schedule recorder. Consumed keys are in input-port order (store.deliver
// returns them that way).
func recordStep(g *Graph, opt Options, seq *atomic.Uint64, name string, consumed []string, out []Token) {
	if opt.Schedule == nil {
		return
	}
	produced := make([]string, len(out))
	for i, t := range out {
		produced[i] = TokenKey(g, t)
	}
	opt.Schedule.RecordStep(seq.Add(1), name, consumed, produced)
}

// ReplayFire computes one vertex activation outside an engine: the replay
// verifier's way to re-execute a recorded firing. Pure vertices run through
// the interpreted evaluator (no memo, no work factor), routing vertices move
// their operand; the returned tokens are the activation's emissions in port
// fan-out order.
func ReplayFire(g *Graph, n *Node, tag int64, operands []value.Value) ([]Token, error) {
	return fire(g, n, tag, operands, nil, Options{}, newResult(1))
}

// workSink defeats any optimization of the WorkFactor spin loop.
var workSink atomic.Uint64

// spin emulates the cost of an expensive instruction.
func spin(n int) {
	if n <= 0 {
		return
	}
	acc := workSink.Load()
	for i := 0; i < n; i++ {
		acc = acc*1664525 + 1013904223
	}
	workSink.Store(acc)
}

// memoKey identifies a pure firing: the vertex and its operand values.
func memoKey(n *Node, operands []value.Value) string {
	key := fmt.Sprintf("%d|%s|%s", n.ID, n.Kind, n.Op)
	for _, v := range operands {
		key += "|" + v.String()
	}
	return key
}

// isPure reports whether the vertex kind computes a value from operands
// alone, making it memoizable.
func (k NodeKind) isPure() bool {
	return k == KindArith || k == KindCompare || k == KindUnaryOp
}

// route computes a vertex activation down to its single routed emission: the
// output port, the value, and the tag it carries. Every node kind emits
// exactly one (port, value, tag) triple, fanned over that port's edges by the
// caller — pure kinds via memo/compiled evaluation, the routing kinds (const,
// steer, inctag, copy, settag) by moving an operand. Factoring this below
// fire lets the matrix engine emit straight into its flat per-edge queues
// without materializing []Token slices.
func route(n *Node, tag int64, operands []value.Value, ops []pureOp, opt Options, res *Result) (int, value.Value, int64, error) {
	if n.Kind.isPure() {
		if opt.Memo != nil {
			key := memoKey(n, operands)
			if v, ok := opt.Memo.LookupFiring(key); ok {
				res.MemoHits++
				return 0, v, tag, nil
			}
			spin(opt.WorkFactor)
			v, err := evalPure(n, operands, ops)
			if err != nil {
				return 0, value.Value{}, 0, err
			}
			opt.Memo.StoreFiring(key, v)
			return 0, v, tag, nil
		}
		spin(opt.WorkFactor)
		v, err := evalPure(n, operands, ops)
		if err != nil {
			return 0, value.Value{}, 0, err
		}
		return 0, v, tag, nil
	}
	switch n.Kind {
	case KindConst:
		return 0, n.Init, tag, nil
	case KindSteer:
		ctl, err := operands[1].Truthy()
		if err != nil {
			return 0, value.Value{}, 0, fmt.Errorf("dataflow: steer %s control: %w", n.Name, err)
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
	return 0, value.Value{}, 0, fmt.Errorf("dataflow: node %s has invalid kind", n.Name)
}

// fire computes a vertex activation: given the matched operands and their
// tag, it returns the emitted tokens. ops holds the run's compiled pure
// vertices (nil falls back to the tree-walking pureResult); opt supplies the
// memo table and work factor; res accounts memo hits.
func fire(g *Graph, n *Node, tag int64, operands []value.Value, ops []pureOp, opt Options, res *Result) ([]Token, error) {
	port, v, outTag, err := route(n, tag, operands, ops, opt, res)
	if err != nil {
		return nil, err
	}
	return emitAll(g, n, port, v, outTag), nil
}

// evalPure evaluates a pure vertex through its compiled op when one exists,
// else through the interpreted pureResult.
func evalPure(n *Node, operands []value.Value, ops []pureOp) (value.Value, error) {
	if int(n.ID) < len(ops) {
		if op := ops[n.ID]; op != nil {
			return op(operands)
		}
	}
	return pureResult(n, operands)
}

// pureResult computes the value of an Arith, Compare or UnaryOp vertex.
func pureResult(n *Node, operands []value.Value) (value.Value, error) {
	switch n.Kind {
	case KindArith, KindCompare:
		a, b := operands[0], value.Value{}
		if n.Imm.IsValid() {
			if n.ImmLeft {
				a, b = n.Imm, operands[0]
			} else {
				b = n.Imm
			}
		} else {
			b = operands[1]
		}
		v, err := value.Binary(n.Op, a, b)
		if err != nil {
			return value.Value{}, fmt.Errorf("dataflow: node %s: %w", n.Name, err)
		}
		if n.Kind == KindCompare {
			// Algorithm 1 (lines 25-27): comparisons produce 1 or 0 control
			// operands, not booleans.
			if v.AsBool() {
				return value.Int(1), nil
			}
			return value.Int(0), nil
		}
		return v, nil
	case KindUnaryOp:
		v, err := value.Unary(n.Op, operands[0])
		if err != nil {
			return value.Value{}, fmt.Errorf("dataflow: node %s: %w", n.Name, err)
		}
		return v, nil
	}
	return value.Value{}, fmt.Errorf("dataflow: node %s is not pure", n.Name)
}

// emitAll fans a value out to every edge of an output port.
func emitAll(g *Graph, n *Node, port int, v value.Value, tag int64) []Token {
	outs := n.Out[port]
	toks := make([]Token, 0, len(outs))
	for _, e := range outs {
		toks = append(toks, Token{Val: v, Edge: e, Tag: tag})
	}
	return toks
}

// overBudget reports whether one more firing would exceed Options.MaxFirings:
// every engine asks before firing, so a run never overdraws its budget.
func overBudget(opt Options, fired int64) bool {
	return opt.MaxFirings > 0 && fired >= opt.MaxFirings
}

// initialTokens fires every const vertex once with tag 0. seq numbers the
// const firings before any token is routed, so every schedule starts with
// the graph's constants in node order. Const firings count against the
// firing budget like any other; the tokens emitted so far are returned with
// ErrMaxFirings when it runs out.
func initialTokens(g *Graph, opt Options, res *Result, ts *dfSink, seq *atomic.Uint64) ([]Token, error) {
	var toks []Token
	for _, n := range g.Nodes {
		if n.Kind != KindConst {
			continue
		}
		if overBudget(opt, res.Firings) {
			return toks, ErrMaxFirings
		}
		t0 := ts.begin()
		out, _ := fire(g, n, 0, nil, nil, opt, res) // const firing cannot fail
		recordStep(g, opt, seq, n.Name, nil, out)
		toks = append(toks, out...)
		res.Firings++
		res.PerNode[n.Name]++
		ts.firing(n.ID, n.Name, t0, int64(len(toks)), len(out))
	}
	return toks, nil
}

func newResult(workers int) *Result {
	return &Result{
		Outputs: make(map[string][]TaggedValue),
		PerNode: make(map[string]int64),
		Workers: workers,
	}
}

// sortOutputs orders each output series by tag for deterministic reporting.
func sortOutputs(res *Result) {
	for _, vs := range res.Outputs {
		sort.SliceStable(vs, func(i, j int) bool { return vs[i].Tag < vs[j].Tag })
	}
}

// countPending totals the operands still waiting in the matching stores.
func countPending(stores []store) int {
	n := 0
	for _, s := range stores {
		for _, w := range s {
			for _, q := range w.ports {
				n += len(q)
			}
		}
	}
	return n
}

// runSequential is the deterministic single-PE scheduler: a FIFO worklist of
// tokens, each delivered to its destination vertex's matching store, firing
// vertices as their operand sets complete.
//
// The context is observed once per firing (token deliveries that do not
// complete an operand set are too cheap to matter for latency); a panic out
// of a vertex operation is recovered into *rt.PanicError with the partial
// Result preserved.
func runSequential(ctx context.Context, g *Graph, opt Options) (res *Result, err error) {
	res = newResult(1)
	site := ""
	defer func() {
		if rec := recover(); rec != nil {
			err = rt.NewPanicError("dataflow", site, 0, rec)
		}
	}()
	stores := make([]store, len(g.Nodes))
	for i := range stores {
		stores[i] = make(store)
	}
	ops := compilePureOps(g)
	ts := newDFSink(opt, g, 0)
	var seq atomic.Uint64
	queue, err := initialTokens(g, opt, res, ts, &seq)
	if err != nil {
		return res, err
	}
	for len(queue) > 0 {
		tok := queue[0]
		queue = queue[1:]
		e := g.Edges[tok.Edge]
		if e.To == NoNode {
			res.Outputs[e.Label] = append(res.Outputs[e.Label], TaggedValue{Tag: tok.Tag, Val: tok.Val})
			continue
		}
		n := g.Nodes[e.To]
		key := ""
		if opt.Schedule != nil {
			key = TokenKey(g, tok)
		}
		operands, keys, ready := stores[e.To].deliver(n, e.ToPort, tok.Tag, tok.Val, key)
		if !ready {
			continue
		}
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
		mh0 := res.MemoHits
		t0 := ts.begin()
		out, err := fire(g, n, tok.Tag, operands, ops, opt, res)
		if err != nil {
			return res, err
		}
		recordStep(g, opt, &seq, n.Name, keys, out)
		res.Firings++
		res.PerNode[n.Name]++
		if ts != nil {
			if res.MemoHits > mh0 {
				ts.memoHit()
			}
			ts.firing(n.ID, n.Name, t0, int64(len(queue)+len(out)), len(out))
		}
		queue = append(queue, out...)
	}
	res.Pending = countPending(stores)
	sortOutputs(res)
	return res, nil
}
