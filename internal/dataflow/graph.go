// Package dataflow implements the dynamic dataflow model of §II-A of the
// paper: a program is a directed graph whose vertices are operations and
// whose edges carry tagged operands (value, edge label, iteration tag). A
// vertex fires as soon as all of its input operands with the same tag are
// available — there is no program counter. Control flow uses steer vertices
// (triangles in Fig. 2) and loop iterations are separated by inctag vertices
// (lozenges), exactly the TALM-style node set the paper builds on [5].
package dataflow

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/value"
)

// NodeID identifies a vertex in a Graph.
type NodeID int

// EdgeID identifies an edge in a Graph.
type EdgeID int

// NoNode marks an edge with no destination: tokens arriving on such an edge
// are program outputs (the paper's terminal edges, like 'm' in Fig. 1).
const NoNode NodeID = -1

// NodeKind enumerates the vertex types of the dynamic dataflow model.
type NodeKind uint8

// The vertex kinds. Const vertices are the squares of Figs. 1-2 (roots
// providing initial operands); Arith and Compare are the binary operators;
// Steer is the triangle routing a data operand by a boolean control operand;
// IncTag is the lozenge incrementing the iteration tag; Copy replicates an
// operand; UnaryOp applies a unary operator.
const (
	KindInvalid NodeKind = iota
	KindConst
	KindArith
	KindCompare
	KindSteer
	KindIncTag
	KindCopy
	KindUnaryOp
	// KindSetTag forwards its operand with the iteration tag reset to 0 —
	// the tag-manipulation instruction (TALM-style) that lets a loop's exit
	// value re-enter tag-0 straight-line computation. The compiler emits one
	// after every steer false port it routes onward.
	KindSetTag
)

var kindNames = [...]string{KindConst: "const", KindArith: "arith", KindCompare: "compare", KindSteer: "steer",
	KindIncTag: "inctag", KindCopy: "copy", KindUnaryOp: "unary", KindSetTag: "settag"}

// String is the kind's dfir directive, or "invalid".
func (k NodeKind) String() string {
	if int(k) < len(kindNames) && k != KindInvalid {
		return kindNames[k]
	}
	return "invalid"
}

// Steer output ports.
const (
	PortTrue  = 0
	PortFalse = 1
)

// Node is one vertex. Inputs are indexed ports; a port may have several
// incoming edges — in Fig. 2 the inctag vertex R11 receives either the
// initial edge A1 or the loop-back edge A11 on its single port, and the tag
// matching rule disambiguates iterations. Outputs are per-port edge lists
// (every out edge of a port receives a copy of the fired result — fanout with
// distinct edge labels, as R12 of the paper produces both B12 and B13). Steer
// nodes have two output ports (PortTrue, PortFalse); all other kinds have one
// (port 0).
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string      // diagram label, e.g. "R1"
	Op   string      // operator for Arith/Compare/UnaryOp
	Init value.Value // initial operand for Const
	// Imm, when valid, is an immediate operand fused into an Arith or
	// Compare vertex, which then has a single input port. Fig. 2's R14
	// (id1 > 0) and R18 (id1 - 1) are such vertices: their literals are part
	// of the operation, matching the single-input reactions the paper writes
	// for them. ImmLeft places the immediate as the left operand.
	Imm     value.Value
	ImmLeft bool
	In      [][]EdgeID // incoming edges by port
	Out     [][]EdgeID // output edges by port
}

// InArity returns the number of input ports of this vertex.
func (n *Node) InArity() int { return len(n.In) }

// NoEdge is the invalid edge id returned by failed Connect calls.
const NoEdge EdgeID = -1

// InArity returns the number of input ports the kind requires.
func (k NodeKind) InArity() int {
	switch k {
	case KindConst:
		return 0
	case KindArith, KindCompare, KindSteer:
		return 2
	case KindIncTag, KindCopy, KindUnaryOp, KindSetTag:
		return 1
	}
	return 0
}

// OutPorts returns the number of output ports of the kind.
func (k NodeKind) OutPorts() int {
	if k == KindSteer {
		return 2
	}
	return 1
}

// Edge is one labelled arc. From/FromPort locate the producer (From is the
// node, FromPort its output port); To/ToPort locate the consumer, or To ==
// NoNode for a program output. Label is the paper's edge label (A1, B2, m…)
// and must be unique within a graph — Algorithm 1 turns it into the multiset
// element label.
type Edge struct {
	ID       EdgeID
	Label    string
	From     NodeID
	FromPort int
	To       NodeID
	ToPort   int
}

// Graph is a dynamic dataflow program. Build one with the Add/Connect
// methods, then Validate before running.
//
// Mutate a graph through its methods only: each structural one starts a new
// version, and a version is validated and compiled to its plan (compile.go)
// once, however often it runs. A Node or Edge reached through the exported
// slices is read-only once the graph has run. Runs of one graph may overlap;
// a mutation may overlap nothing. Copy a Graph with Clone only.
type Graph struct {
	Name  string
	Nodes []*Node
	Edges []*Edge

	labels map[string]EdgeID
	// The slabs addNode and connect carve vertices, edges, port headers and
	// each port's first edge from: a few allocations per graph, not a few
	// per vertex and edge.
	nodeSlab pool[Node]
	edgeSlab pool[Edge]
	portSlab pool[[]EdgeID]
	idSlab   pool[EdgeID]

	version  uint64                // structural mutations: addNode, setImm, connect
	valid    atomic.Pointer[stamp] // the last stamp that passed Validate
	compiled atomic.Pointer[plan]  // the plan of the last version that ran
}

// stamp identifies one version of a graph; the lengths also catch an append
// to the exported slices that went around the methods.
type stamp struct {
	version      uint64
	nodes, edges int
}

func (g *Graph) stamp() stamp { return stamp{g.version, len(g.Nodes), len(g.Edges)} }

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, labels: make(map[string]EdgeID)}
}

// Grow makes room for nodes more vertices and edges more edges, so a decoder
// that counted them builds the graph without regrowing its tables.
func (g *Graph) Grow(nodes, edges int) {
	g.Nodes, g.Edges = slices.Grow(g.Nodes, nodes), slices.Grow(g.Edges, edges)
	if len(g.labels) == 0 {
		g.labels = make(map[string]EdgeID, edges)
	}
}

func (g *Graph) addNode(kind NodeKind, name, op string, init value.Value) NodeID {
	id := NodeID(len(g.Nodes))
	if name == "" {
		name = "n" + strconv.Itoa(int(id))
	}
	in, out := kind.InArity(), kind.OutPorts()
	ports := g.portSlab.take(in + out)
	n := &g.nodeSlab.take(1)[0]
	*n = Node{ID: id, Kind: kind, Name: name, Op: op, Init: init, In: ports[:in:in], Out: ports[in:]}
	g.Nodes = append(g.Nodes, n)
	g.version++
	return id
}

// setImm fuses an immediate operand into the last-added binary vertex,
// reducing it to a single input port.
func (g *Graph) setImm(id NodeID, imm value.Value, immLeft bool) NodeID {
	n := g.Nodes[id]
	n.Imm = imm
	n.ImmLeft = immLeft
	n.In = n.In[:1:1]
	g.version++
	return id
}

// pool is one slab's free tail. A chunk is never reallocated, so what was
// carved from it stays put. A new chunk holds half the slots handed out so
// far, from slabFirst up to slabMax: a small graph pays for a small one, and
// a large one leaves about a third of its slots unused at most.
type pool[T any] struct {
	free []T
	used int
}

const slabFirst, slabMax = 8, 256

// take carves n zeroed slots, capped at n so an append never runs into the
// next carve.
func (p *pool[T]) take(n int) []T {
	if len(p.free) < n {
		p.free = make([]T, max(n, min(max(p.used/2, slabFirst), slabMax)))
	}
	s := p.free[:n:n]
	p.free, p.used = p.free[n:], p.used+n
	return s
}

// appendID appends id to a port's edge list, carving the list's first slot
// from the slab; a second edge on the port moves the list to the heap.
func (g *Graph) appendID(list []EdgeID, id EdgeID) []EdgeID {
	if cap(list) == 0 {
		list = g.idSlab.take(1)[:0]
	}
	return append(list, id)
}

// AddArithImm adds an arithmetic vertex computing (input op imm), e.g.
// Fig. 2's R18 vertex id1 - 1.
func (g *Graph) AddArithImm(name, op string, imm value.Value) NodeID {
	return g.setImm(g.AddArith(name, op), imm, false)
}

// AddArithImmLeft adds an arithmetic vertex computing (imm op input).
func (g *Graph) AddArithImmLeft(name, op string, imm value.Value) NodeID {
	return g.setImm(g.AddArith(name, op), imm, true)
}

// AddCompareImm adds a comparison vertex computing (input op imm), e.g.
// Fig. 2's R14 vertex id1 > 0.
func (g *Graph) AddCompareImm(name, op string, imm value.Value) NodeID {
	return g.setImm(g.AddCompare(name, op), imm, false)
}

// AddCompareImmLeft adds a comparison vertex computing (imm op input).
func (g *Graph) AddCompareImmLeft(name, op string, imm value.Value) NodeID {
	return g.setImm(g.AddCompare(name, op), imm, true)
}

// AddConst adds a root vertex producing v once with tag 0.
func (g *Graph) AddConst(name string, v value.Value) NodeID {
	return g.addNode(KindConst, name, "", v)
}

// AddArith adds a binary arithmetic vertex (+ - * / %).
func (g *Graph) AddArith(name, op string) NodeID {
	return g.addNode(KindArith, name, op, value.Value{})
}

// AddCompare adds a binary comparison vertex (== != < <= > >=). Following
// Algorithm 1 (lines 25-27), comparison vertices emit integer 1 or 0.
func (g *Graph) AddCompare(name, op string) NodeID {
	return g.addNode(KindCompare, name, op, value.Value{})
}

// AddSteer adds a steer vertex: input port 0 is the data operand, port 1 the
// boolean control operand; output PortTrue forwards the data when the control
// is true, PortFalse when false.
func (g *Graph) AddSteer(name string) NodeID {
	return g.addNode(KindSteer, name, "", value.Value{})
}

// AddIncTag adds an inctag vertex: forwards its operand with tag+1.
func (g *Graph) AddIncTag(name string) NodeID {
	return g.addNode(KindIncTag, name, "", value.Value{})
}

// AddCopy adds an identity vertex replicating its operand to all out edges.
func (g *Graph) AddCopy(name string) NodeID {
	return g.addNode(KindCopy, name, "", value.Value{})
}

// AddUnary adds a unary operator vertex (- or !).
func (g *Graph) AddUnary(name, op string) NodeID {
	return g.addNode(KindUnaryOp, name, op, value.Value{})
}

// AddSetTag adds a tag-reset vertex: forwards its operand with tag 0.
func (g *Graph) AddSetTag(name string) NodeID {
	return g.addNode(KindSetTag, name, "", value.Value{})
}

// Connect adds an edge labelled label from output port fromPort of node from
// to input port toPort of node to.
func (g *Graph) Connect(from NodeID, fromPort int, to NodeID, toPort int, label string) (EdgeID, error) {
	if to == NoNode {
		return g.connect(from, fromPort, NoNode, 0, label)
	}
	return g.connect(from, fromPort, to, toPort, label)
}

// ConnectOut adds a terminal (output) edge from output port fromPort of from.
func (g *Graph) ConnectOut(from NodeID, fromPort int, label string) (EdgeID, error) {
	return g.connect(from, fromPort, NoNode, 0, label)
}

func (g *Graph) connect(from NodeID, fromPort int, to NodeID, toPort int, label string) (EdgeID, error) {
	if label == "" {
		return NoEdge, fmt.Errorf("dataflow: edge needs a label")
	}
	if _, dup := g.labels[label]; dup {
		return NoEdge, fmt.Errorf("dataflow: duplicate edge label %q", label)
	}
	fn, err := g.node(from)
	if err != nil {
		return NoEdge, err
	}
	if fromPort < 0 || fromPort >= len(fn.Out) {
		return NoEdge, fmt.Errorf("dataflow: node %s has no output port %d", fn.Name, fromPort)
	}
	id := EdgeID(len(g.Edges))
	if to != NoNode {
		tn, err := g.node(to)
		if err != nil {
			return NoEdge, err
		}
		if toPort < 0 || toPort >= len(tn.In) {
			return NoEdge, fmt.Errorf("dataflow: node %s has no input port %d", tn.Name, toPort)
		}
		tn.In[toPort] = g.appendID(tn.In[toPort], id)
	}
	fn.Out[fromPort] = g.appendID(fn.Out[fromPort], id)
	e := &g.edgeSlab.take(1)[0]
	*e = Edge{ID: id, Label: label, From: from, FromPort: fromPort, To: to, ToPort: toPort}
	g.Edges = append(g.Edges, e)
	g.labels[label] = id
	g.version++
	return id, nil
}

func (g *Graph) node(id NodeID) (*Node, error) {
	if id < 0 || int(id) >= len(g.Nodes) {
		return nil, fmt.Errorf("dataflow: no node %d", id)
	}
	return g.Nodes[id], nil
}

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.Nodes) {
		return nil
	}
	return g.Nodes[id]
}

// EdgeByLabel returns the edge carrying label, or nil.
func (g *Graph) EdgeByLabel(label string) *Edge {
	if id, ok := g.labels[label]; ok {
		return g.Edges[id]
	}
	return nil
}

// NodeByName returns the first node named name, or nil.
func (g *Graph) NodeByName(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// SetConst re-parameterizes a Const vertex, so a built graph can be re-run on
// different inputs (the equivalence harness does this). It starts no version:
// it writes through to the current plan's operands, and itself refuses the
// one value Validate would, the invalid Value.
func (g *Graph) SetConst(id NodeID, v value.Value) error {
	n, err := g.node(id)
	if err != nil {
		return err
	}
	if n.Kind != KindConst {
		return fmt.Errorf("dataflow: SetConst on %s node %s", n.Kind, n.Name)
	}
	if !v.IsValid() {
		return fmt.Errorf("dataflow: const node %s has no value", n.Name)
	}
	n.Init = v
	if p := g.compiled.Load(); p != nil && p.stamp == g.stamp() {
		p.vals[p.vert[id].arg] = v
	}
	return nil
}

// OutputLabels returns the labels of all terminal edges, in edge order.
func (g *Graph) OutputLabels() []string {
	var out []string
	for _, e := range g.Edges {
		if e.To == NoNode {
			out = append(out, e.Label)
		}
	}
	return out
}

// RootNodes returns the Const vertices, the squares of the figures.
func (g *Graph) RootNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindConst {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks what the firing core assumes, so whatever it accepts runs:
// a vertex at least (TestValidationErrors); on each the input ports its kind
// takes, one fewer beside a fused immediate, so at most two, the token store's
// inline ports (TestValidationPortCount); every port connected, operators
// known, a value on every const (TestValidationErrors); unique vertex names,
// which a schedule records (TestValidationDuplicateNames). It always walks; a
// run of the version it passed does not walk again.
func (g *Graph) Validate() error {
	st := g.stamp()
	if len(g.Nodes) == 0 {
		return fmt.Errorf("dataflow: graph %s has no nodes", g.Name)
	}
	for _, n := range g.Nodes {
		want := n.Kind.InArity()
		if n.Imm.IsValid() && (n.Kind == KindArith || n.Kind == KindCompare) {
			want--
		}
		if len(n.In) != want {
			return fmt.Errorf("dataflow: node %s (%s) has %d input ports, want %d", n.Name, n.Kind, len(n.In), want)
		}
		for port, ins := range n.In {
			if len(ins) == 0 {
				return fmt.Errorf("dataflow: node %s (%s) input port %d unconnected", n.Name, n.Kind, port)
			}
		}
		switch n.Kind {
		case KindArith:
			switch n.Op {
			case "+", "-", "*", "/", "%":
			default:
				return fmt.Errorf("dataflow: node %s: unknown arithmetic operator %q", n.Name, n.Op)
			}
		case KindCompare:
			switch n.Op {
			case "==", "!=", "<", "<=", ">", ">=":
			default:
				return fmt.Errorf("dataflow: node %s: unknown comparison operator %q", n.Name, n.Op)
			}
		case KindUnaryOp:
			switch n.Op {
			case "-", "!":
			default:
				return fmt.Errorf("dataflow: node %s: unknown unary operator %q", n.Name, n.Op)
			}
		case KindConst:
			if !n.Init.IsValid() {
				return fmt.Errorf("dataflow: const node %s has no value", n.Name)
			}
		}
	}
	byName := slices.Clone(g.Nodes) // sorted, a tenth of a name set's bytes
	slices.SortFunc(byName, func(a, b *Node) int { return strings.Compare(a.Name, b.Name) })
	for i := 1; i < len(byName); i++ {
		if byName[i].Name == byName[i-1].Name {
			return fmt.Errorf("dataflow: graph %s has two vertices named %s", g.Name, byName[i].Name)
		}
	}
	g.valid.Store(&st)
	return nil
}
