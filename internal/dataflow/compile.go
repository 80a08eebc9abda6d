package dataflow

import (
	"fmt"
	"sync/atomic"

	"repro/internal/value"
)

// plan is the dense form of a Graph that every engine routes through, built
// once per run (graphs may be extended between runs) in O(V+E) time and a
// fixed number of allocations: the incidence structure of "Dataflow Graphs as
// Matrices" (PAPERS.md) in CSR form — producer→edge rows per (vertex, output
// port), edge→consumer columns — and the op table. Immediates and names are
// read from the Node when needed.
type plan struct {
	g *Graph
	// portBase[v] is the first flat output-port index of vertex v; the row of
	// flat port f is outEdges[outStart[f]:outStart[f+1]].
	portBase, outStart, outEdges []int32
	// edgeTo[e] is the consumer of edge e (-1 terminal), edgePort[e] its
	// input port. Ports and arities fit a byte: a vertex kind has at most two.
	edgeTo   []int32
	edgePort []uint8
	vert     []vertexOp
	fns      []resolvedOp
	// terminals counts the output edges and multiPort the vertices that need
	// tag matching: the sizes output maps and matching tables start at.
	terminals, multiPort, maxArity int

	// The counters the run's cores share: firings per vertex (a vertex is
	// fired by exactly one core, so the slots are unshared), the schedule's
	// commit sequence and the firings reserved against Options.MaxFirings.
	counts []int64
	seq    atomic.Uint64
	budget atomic.Int64
}

// opLayout says where a pure vertex's operator finds its operands.
type opLayout uint8

const (
	opRoute    opLayout = iota // not pure: the vertex moves an operand (routeOperand)
	opBinary                   // fn(o[0], o[1])
	opImmRight                 // fn(o[0], n.Imm)
	opImmLeft                  // fn(n.Imm, o[0])
	opUnary                    // fn(o[0])
)

// vertexOp is one vertex's op-table entry: kind and arity, copied so the
// firing path dispatches without touching the Node, and for pure vertices the
// operator (an index into plan.fns) and operand layout, decided once per run
// instead of on every activation.
type vertexOp struct {
	fn     uint16
	kind   NodeKind
	layout opLayout
	arity  uint8
}

// resolvedOp is one distinct operator of the run, resolved once however many
// vertices carry it.
type resolvedOp struct {
	name  string
	unary bool
	bin   func(a, b value.Value) (value.Value, error)
	un    func(a value.Value) (value.Value, error)
}

func newPlan(g *Graph) *plan {
	nv, ne := len(g.Nodes), len(g.Edges)
	flat := 0
	for _, n := range g.Nodes {
		flat += len(n.Out)
	}
	ints := make([]int32, (nv+1)+(flat+1)+ne+ne)
	p := &plan{
		g:        g,
		portBase: ints[:nv+1],
		outStart: ints[nv+1 : nv+flat+2],
		outEdges: ints[nv+flat+2 : nv+flat+2 : nv+flat+2+ne],
		edgeTo:   ints[nv+flat+2+ne:],
		edgePort: make([]uint8, ne),
		vert:     make([]vertexOp, nv),
		counts:   make([]int64, nv),
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
		p.vert[i] = p.compile(n)
		p.maxArity = max(p.maxArity, len(n.In))
		if len(n.In) > 1 {
			p.multiPort++
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

// evalPure computes a pure vertex through its op-table entry. Semantics are
// exactly those of the tree-walking pureResult that
// TestCompiledPureOpsDifferential keeps as the oracle.
func (p *plan) evalPure(n *Node, vo vertexOp, o []value.Value) (v value.Value, err error) {
	switch vo.layout {
	case opBinary:
		v, err = p.fns[vo.fn].bin(o[0], o[1])
	case opImmRight:
		v, err = p.fns[vo.fn].bin(o[0], n.Imm)
	case opImmLeft:
		v, err = p.fns[vo.fn].bin(n.Imm, o[0])
	default:
		v, err = p.fns[vo.fn].un(o[0])
	}
	if err != nil {
		return value.Value{}, fmt.Errorf("dataflow: node %s: %w", n.Name, err)
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
