package dataflow

import (
	"fmt"

	"repro/internal/value"
)

// plan is the compiled form of one version of a Graph that every engine and
// ReplayFire route through: built once per version (Graph.plan) in O(V+E) time
// and a fixed number of allocations, immutable afterwards and shared by all
// its runs, overlapping ones included. It holds the incidence structure of
// "Dataflow Graphs as Matrices" (PAPERS.md) in CSR form — producer→edge rows
// per (vertex, output port), edge→consumer columns — the op table and the
// immediates. A firing reads nothing else; the Node supplies what the plan
// leaves out: names, and a const's initial operand (SetConst may change it).
type plan struct {
	g     *Graph
	stamp stamp
	// portBase[v] is the first flat output-port index of vertex v; the row of
	// flat port f is outEdges[outStart[f]:outStart[f+1]].
	portBase, outStart, outEdges []int32
	// edgeTo[e] is the consumer of edge e (-1 terminal), edgePort[e] its
	// input port. Ports and arities fit a byte: a vertex kind has at most two.
	edgeTo   []int32
	edgePort []uint8
	vert     []vertexOp
	imm      []value.Value // by vertex id; invalid where the vertex has none
	fns      []resolvedOp
	// What run state is sized from: the output edges, the vertices that need
	// tag matching, the widest operand vector and the tokens the consts emit.
	terminals, multiPort, maxArity, seeds int
}

// opLayout says where a pure vertex's operator finds its operands.
type opLayout uint8

const (
	opRoute    opLayout = iota // not pure: the vertex moves an operand (plan.route)
	opBinary                   // fn(o[0], o[1])
	opImmRight                 // fn(o[0], imm)
	opImmLeft                  // fn(imm, o[0])
	opUnary                    // fn(o[0])
)

// vertexOp is one vertex's op-table entry: kind and arity, copied so the
// firing path dispatches without touching the Node, and for pure vertices the
// operator (an index into plan.fns) and operand layout, decided once per
// version instead of on every activation.
type vertexOp struct {
	fn     uint16
	kind   NodeKind
	layout opLayout
	arity  uint8
}

// resolvedOp is one distinct operator of the graph, resolved once however
// many vertices carry it.
type resolvedOp struct {
	name  string
	unary bool
	bin   func(a, b value.Value) (value.Value, error)
	un    func(a value.Value) (value.Value, error)
}

// plan returns the plan of g as it stands, validating and compiling only a
// version that has not been yet: the one compile site. Overlapping first runs
// may each compile; the plans are equal and either one stays.
func (g *Graph) plan() (*plan, error) {
	st, p := g.stamp(), g.compiled.Load()
	if p == nil || p.stamp != st {
		if v := g.valid.Load(); v == nil || *v != st {
			if err := g.Validate(); err != nil {
				return nil, err
			}
		}
		p = newPlan(g)
		g.compiled.Store(p)
	}
	return p, nil
}

// newPlan compiles a graph that passed Validate.
func newPlan(g *Graph) *plan {
	nv, ne := len(g.Nodes), len(g.Edges)
	flat := 0
	for _, n := range g.Nodes {
		flat += len(n.Out)
	}
	ints := make([]int32, (nv+1)+(flat+1)+ne+ne)
	p := &plan{
		g:        g,
		stamp:    g.stamp(),
		portBase: ints[:nv+1],
		outStart: ints[nv+1 : nv+flat+2],
		outEdges: ints[nv+flat+2 : nv+flat+2 : nv+flat+2+ne],
		edgeTo:   ints[nv+flat+2+ne:],
		edgePort: make([]uint8, ne),
		vert:     make([]vertexOp, nv),
		imm:      make([]value.Value, nv),
	}
	f := int32(0)
	for i, n := range g.Nodes {
		p.portBase[i] = f
		for _, edges := range n.Out {
			p.outStart[f] = int32(len(p.outEdges))
			for _, e := range edges {
				p.outEdges = append(p.outEdges, int32(e))
			}
			f++
		}
		p.vert[i], p.imm[i] = p.compile(n), n.Imm
		p.maxArity = max(p.maxArity, len(n.In))
		if len(n.In) > 1 {
			p.multiPort++
		}
		if n.Kind == KindConst {
			p.seeds += len(n.Out[0])
		}
	}
	p.portBase[nv], p.outStart[f] = f, int32(len(p.outEdges))
	for i, e := range g.Edges {
		p.edgeTo[i], p.edgePort[i] = int32(e.To), uint8(e.ToPort)
		if e.To == NoNode {
			p.terminals++
		}
	}
	return p
}

// row returns the out-edge ids of vertex v's output port.
func (p *plan) row(v int32, port int) []int32 {
	f := int(p.portBase[v]) + port
	return p.outEdges[p.outStart[f]:p.outStart[f+1]]
}

// compile lowers one vertex to its op-table entry.
func (p *plan) compile(n *Node) vertexOp {
	vo := vertexOp{kind: n.Kind, arity: uint8(len(n.In))}
	switch {
	case n.Kind == KindUnaryOp:
		vo.layout = opUnary
	case !n.Kind.isPure():
		return vo
	case !n.Imm.IsValid():
		vo.layout = opBinary
	case n.ImmLeft:
		vo.layout = opImmLeft
	default:
		vo.layout = opImmRight
	}
	unary := vo.layout == opUnary
	for i, r := range p.fns {
		if r.name == n.Op && r.unary == unary {
			vo.fn = uint16(i)
			return vo
		}
	}
	// An operator that does not resolve ahead of time keeps its string
	// dispatch, which reports it unknown (Validate rejects such graphs).
	r, ok := resolvedOp{name: n.Op, unary: unary}, false
	if unary {
		if r.un, ok = value.UnaryFn(n.Op); !ok {
			r.un = func(a value.Value) (value.Value, error) { return value.Unary(n.Op, a) }
		}
	} else if r.bin, ok = value.BinaryFn(n.Op); !ok {
		r.bin = func(a, b value.Value) (value.Value, error) { return value.Binary(n.Op, a, b) }
	}
	vo.fn = uint16(len(p.fns))
	p.fns = append(p.fns, r)
	return vo
}

// name serves the slow paths: errors, fault injector, schedule, telemetry.
func (p *plan) name(id int32) string { return p.g.Nodes[id].Name }

// evalPure computes pure vertex id through its op-table entry vo. Semantics are
// exactly those of the tree-walking pureResult that
// TestCompiledPureOpsDifferential keeps as the oracle.
func (p *plan) evalPure(id int32, vo vertexOp, o []value.Value) (v value.Value, err error) {
	switch vo.layout {
	case opBinary:
		v, err = p.fns[vo.fn].bin(o[0], o[1])
	case opImmRight:
		v, err = p.fns[vo.fn].bin(o[0], p.imm[id])
	case opImmLeft:
		v, err = p.fns[vo.fn].bin(p.imm[id], o[0])
	default:
		v, err = p.fns[vo.fn].un(o[0])
	}
	if err != nil {
		return value.Value{}, fmt.Errorf("dataflow: node %s: %w", p.name(id), err)
	}
	if vo.kind == KindCompare {
		// Algorithm 1 (lines 25-27): comparisons produce 1 or 0 control
		// operands, not booleans.
		if v.AsBool() {
			return value.Int(1), nil
		}
		return value.Int(0), nil
	}
	return v, nil
}
