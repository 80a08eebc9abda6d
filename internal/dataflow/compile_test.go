package dataflow

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// TestCompiledPureOpsDifferential pins the op table's pure-vertex evaluation to
// the tree-walking pureResult oracle: on random vertices (every pure kind,
// every operator including unknown ones, immediate-left, immediate-right and
// two-operand forms) and random operands (including division-by-zero and
// non-numeric strings), the op-table entry must return the identical value and
// the identical error text.
func TestCompiledPureOpsDifferential(t *testing.T) {
	arithOps := []string{"+", "-", "*", "/", "%", "and", "or", "min", "max", "bogus"}
	// Compare vertices only ever carry boolean-valued operators (the graph
	// builder's AddCompare contract); other ops would panic in AsBool on both
	// evaluators alike.
	cmpOps := []string{"<", "<=", ">", ">=", "==", "!=", "bogus"}
	unOps := []string{"-", "!", "not", "+", "bogus"}
	randVal := func(rng *rand.Rand) value.Value {
		switch rng.Intn(4) {
		case 0:
			return value.Int(int64(rng.Intn(7)) - 3)
		case 1:
			return value.Int(0)
		case 2:
			return value.Str("A")
		default:
			return value.Bool(rng.Intn(2) == 0)
		}
	}
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := &Node{ID: NodeID(rng.Intn(4)), Name: "v"}
		var operands []value.Value
		switch rng.Intn(3) {
		case 0:
			n.Kind = KindUnaryOp
			n.Op = unOps[rng.Intn(len(unOps))]
			operands = []value.Value{randVal(rng)}
		case 1:
			n.Kind = KindArith
			n.Op = arithOps[rng.Intn(len(arithOps))]
		default:
			n.Kind = KindCompare
			n.Op = cmpOps[rng.Intn(len(cmpOps))]
		}
		if operands == nil {
			if rng.Intn(2) == 0 {
				n.Imm = randVal(rng)
				n.ImmLeft = rng.Intn(2) == 0
				operands = []value.Value{randVal(rng)}
			} else {
				operands = []value.Value{randVal(rng), randVal(rng)}
			}
		}
		p := &plan{g: &Graph{Nodes: []*Node{n}}, imm: []value.Value{n.Imm}}
		want, wantErr := pureResult(n, operands)
		got, gotErr := p.evalPure(0, p.compile(n), operands)
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("seed %d: %s %q imm=%v left=%v operands=%v:\n oracle err %v\n compiled err %v",
				seed, n.Kind, n.Op, n.Imm, n.ImmLeft, operands, wantErr, gotErr)
		}
		if wantErr == nil && want != got {
			t.Fatalf("seed %d: %s %q imm=%v left=%v operands=%v: oracle %s compiled %s",
				seed, n.Kind, n.Op, n.Imm, n.ImmLeft, operands, want, got)
		}
	}
}

// TestCompilePureOpsCoversGraph checks the per-run lowering: exactly the pure
// vertices get an operator layout, every vertex its arity, one resolved
// function serves all vertices that share an operator, and the CSR rows are
// the nodes' out-edge lists.
func TestCompilePureOpsCoversGraph(t *testing.T) {
	g := NewGraph("cover")
	c := g.AddConst("c", value.Int(2))
	a := g.AddArith("a", "+")
	b := g.AddArithImm("b", "+", value.Int(1))
	cmp := g.AddCompare("lt", "<")
	st := g.AddSteer("st")
	g.Connect(c, 0, a, 0, "x")
	g.Connect(c, 0, a, 1, "y")
	g.Connect(a, 0, b, 0, "s")
	g.Connect(b, 0, cmp, 0, "s1")
	g.Connect(c, 0, cmp, 1, "z")
	g.Connect(c, 0, st, 0, "d")
	g.Connect(cmp, 0, st, 1, "ctl")
	g.ConnectOut(st, PortTrue, "yes")
	g.ConnectOut(st, PortFalse, "no")
	p := newPlan(g)
	if len(p.vert) != len(g.Nodes) {
		t.Fatalf("len(vert) = %d, want %d", len(p.vert), len(g.Nodes))
	}
	for _, n := range g.Nodes {
		vo := p.vert[n.ID]
		if (vo.layout != opRoute) != n.Kind.isPure() {
			t.Errorf("node %s (kind %s): layout=%d pure=%v", n.Name, n.Kind, vo.layout, n.Kind.isPure())
		}
		if int(vo.arity) != len(n.In) {
			t.Errorf("node %s: arity %d, want %d", n.Name, vo.arity, len(n.In))
		}
		for port, want := range n.Out {
			got := p.row(int32(n.ID), port)
			if len(got) != len(want) {
				t.Fatalf("node %s port %d: row %v, want %v", n.Name, port, got, want)
			}
			for i := range want {
				if EdgeID(got[i]) != want[i] {
					t.Errorf("node %s port %d: row %v, want %v", n.Name, port, got, want)
				}
			}
		}
	}
	if len(p.fns) != 2 || p.vert[a].fn != p.vert[b].fn {
		t.Errorf("resolved ops = %d (a→%d, b→%d), want + and < once each", len(p.fns), p.vert[a].fn, p.vert[b].fn)
	}
	for _, e := range g.Edges {
		if NodeID(p.edgeTo[e.ID]) != e.To || (e.To != NoNode && int(p.edgePort[e.ID]) != e.ToPort) {
			t.Errorf("edge %s: consumer (%d,%d), want (%d,%d)", e.Label, p.edgeTo[e.ID], p.edgePort[e.ID], e.To, e.ToPort)
		}
	}
	if p.terminals != 2 || p.multiPort != 3 || p.maxArity != 2 {
		t.Errorf("terminals/multiPort/maxArity = %d/%d/%d, want 2/3/2", p.terminals, p.multiPort, p.maxArity)
	}
}

// pureResult computes the value of an Arith, Compare or UnaryOp vertex by
// walking the Node and dispatching on the operator string every time: the
// oracle of the op table.
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
