package dataflow

import (
	"fmt"

	"repro/internal/value"
)

// plan is the compiled form of one version of a Graph that every engine and
// ReplayFire route through: built once per version (Graph.plan) in O(V+E) time,
// shared by all its runs, overlapping ones included, and immutable but for the
// const operands SetConst writes through. It holds the incidence structure of
// "Dataflow Graphs as Matrices" (PAPERS.md) in CSR form as graph-local ints,
// the op table and the operands: a firing reads one vertex record, one edge
// record and its row, and a Node only for its name.
type plan struct {
	g     *Graph
	stamp stamp
	vert  []vertexOp
	// The row of flat output port f is outEdges[outStart[f]:outStart[f+1]].
	outStart, outEdges []int32
	edges              []edgeRec
	vals               []value.Value // the distinct immediates and each const's operand
	consts             []int32       // the const vertices, in node order
	labels             []string      // the terminal edges' labels, by output slot
	fns                []resolvedOp
	// What run state is sized from: the vertices that need tag matching (a
	// direct slot each) and the seed tokens.
	multiPort, seeds int
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

// vertexOp is one vertex's record: kind, arity and first flat output port,
// for pure vertices the operator (an index into plan.fns) and operand layout,
// and arg, which indexes plan.vals (an immediate, a const's operand) or the
// token store's direct slots (a multi-port vertex).
type vertexOp struct {
	portBase, arg int32
	fn            uint16
	kind          NodeKind
	layout        opLayout
	arity         uint8
}

// edgeRec is one edge's consumer and input port (a vertex kind has at most
// two), or -1-slot for a terminal edge, slot indexing plan.labels.
type edgeRec struct {
	to   int32
	port uint8
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
	flat, ne := 0, len(g.Edges)
	for _, n := range g.Nodes {
		flat += len(n.Out)
	}
	ints := make([]int32, flat+1+ne)
	p := &plan{
		g:        g,
		stamp:    g.stamp(),
		vert:     make([]vertexOp, len(g.Nodes)),
		outStart: ints[:flat+1],
		outEdges: ints[flat+1 : flat+1 : flat+1+ne],
		edges:    make([]edgeRec, ne),
	}
	imms := map[value.Value]int32{}
	f := int32(0)
	for i, n := range g.Nodes {
		vo := p.compile(n)
		vo.portBase = f
		for _, edges := range n.Out {
			p.outStart[f] = int32(len(p.outEdges))
			for _, e := range edges {
				p.outEdges = append(p.outEdges, int32(e))
			}
			f++
		}
		switch {
		case vo.layout == opImmRight || vo.layout == opImmLeft:
			k, ok := imms[n.Imm]
			if !ok {
				k = int32(len(p.vals))
				imms[n.Imm], p.vals = k, append(p.vals, n.Imm)
			}
			vo.arg = k
		case vo.arity > 1:
			vo.arg, p.multiPort = int32(p.multiPort), p.multiPort+1
		case n.Kind == KindConst:
			vo.arg, p.vals, p.consts = int32(len(p.vals)), append(p.vals, n.Init), append(p.consts, int32(i))
			p.seeds += len(n.Out[0])
		}
		p.vert[i] = vo
	}
	p.outStart[f] = int32(len(p.outEdges))
	for i, e := range g.Edges {
		p.edges[i] = edgeRec{int32(e.To), uint8(e.ToPort)}
		if e.To == NoNode {
			p.edges[i].to, p.labels = -1-int32(len(p.labels)), append(p.labels, e.Label)
		}
	}
	return p
}

// row returns the out-edge ids of vertex v's output port.
func (p *plan) row(v int32, port int) []int32 {
	f := int(p.vert[v].portBase) + port
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
		v, err = p.fns[vo.fn].bin(o[0], p.vals[vo.arg])
	case opImmLeft:
		v, err = p.fns[vo.fn].bin(p.vals[vo.arg], o[0])
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
