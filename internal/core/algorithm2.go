package core

import (
	"context"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gamma"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// ReactionToGraph is Algorithm 2 (step 1): it converts one reaction into a
// dataflow subgraph. Following the paper's case analysis:
//
//   - each replace-list element becomes a root node (lines 2-4), a Const
//     placeholder whose value the mapper fills per match;
//   - when the by list carries conditions, comparison nodes are created for
//     the condition expression and a Steer node per affected root, with the
//     true ports feeding the first branch's expressions and the false ports
//     the else branch's (lines 6-16);
//   - without conditions, arithmetic nodes are created directly over the
//     roots (lines 18-21).
//
// Product elements become terminal edges labelled with the product's label
// field when it is a string literal (else a synthetic out<i> label). A label
// produced by both branches gets a "#f" suffix on the false side; the mapper
// strips it. Tag fields are not represented in the subgraph — a single
// instance computes one activation — which is why loops cannot be recovered
// from reaction syntax alone (the paper's observation about inctag).
func ReactionToGraph(r *gamma.Reaction) (*dataflow.Graph, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(r.Branches) > 2 {
		return nil, fmt.Errorf("core: reaction %s has %d branches; algorithm 2 handles 1 or 2", r.Name, len(r.Branches))
	}
	g := dataflow.NewGraph(r.Name)
	b := &exprBuilder{g: g, src: make(map[string]outPort)}

	// Roots from the replace list: every variable bound by a pattern gets a
	// root vertex (a repeated variable is an equality constraint and shares
	// its root). The paper binds whole elements; binding per field lets
	// conditions read non-value fields too, as the exchange-sort reaction's
	// indices do.
	for i, p := range r.Patterns {
		if p[0].Var == "" {
			return nil, fmt.Errorf("core: reaction %s pattern %d value field is not a variable", r.Name, i)
		}
		for _, f := range p {
			if f.Var == "" {
				continue
			}
			if _, bound := b.src[f.Var]; bound {
				continue
			}
			id := g.AddConst(f.Var, value.Int(0))
			b.src[f.Var] = outPort{node: id, port: 0}
		}
	}

	if r.Branches[0].Cond == nil && len(r.Branches) == 1 {
		// Unconditional: arithmetic trees straight over the roots.
		for pi, tpl := range r.Branches[0].Products {
			if err := b.emitProduct(tpl, pi, "", nil); err != nil {
				return nil, fmt.Errorf("core: reaction %s: %w", r.Name, err)
			}
		}
		return g, nil
	}

	// Conditional: comparison subtree plus one steer per routed source.
	cond := r.Branches[0].Cond
	if cond == nil {
		return nil, fmt.Errorf("core: reaction %s: first branch of a conditional reaction must carry the condition", r.Name)
	}
	ctl, err := b.build(cond)
	if err != nil {
		return nil, fmt.Errorf("core: reaction %s condition: %w", r.Name, err)
	}
	steers := &steerSet{b: b, ctl: ctl, byVar: make(map[string]dataflow.NodeID)}

	seen := make(map[string]bool)
	for pi, tpl := range r.Branches[0].Products {
		if err := b.emitProduct(tpl, pi, "", steers.truePort); err != nil {
			return nil, fmt.Errorf("core: reaction %s: %w", r.Name, err)
		}
		seen[templateLabel(tpl, pi)] = true
	}
	if len(r.Branches) == 2 {
		if c2 := r.Branches[1].Cond; c2 != nil {
			return nil, fmt.Errorf("core: reaction %s: second branch must be an else branch", r.Name)
		}
		for pi, tpl := range r.Branches[1].Products {
			suffix := ""
			if seen[templateLabel(tpl, pi)] {
				suffix = "#f"
			}
			if err := b.emitProduct(tpl, pi+len(r.Branches[0].Products), suffix, steers.falsePort); err != nil {
				return nil, fmt.Errorf("core: reaction %s: %w", r.Name, err)
			}
		}
	}
	return g, nil
}

// outPort locates a value source in a graph under construction.
type outPort struct {
	node dataflow.NodeID
	port int
}

// exprBuilder compiles expression trees into dataflow nodes. varResolve, when
// set, redirects variable references (used to route them through steers).
type exprBuilder struct {
	g          *dataflow.Graph
	src        map[string]outPort
	varResolve func(name string) (outPort, error)
	edgeN      int
	nodeN      int
}

func (b *exprBuilder) freshLabel() string {
	b.edgeN++
	return fmt.Sprintf("e%d", b.edgeN)
}

func (b *exprBuilder) freshName(prefix string) string {
	b.nodeN++
	return fmt.Sprintf("%s%d", prefix, b.nodeN)
}

func (b *exprBuilder) connect(from outPort, to dataflow.NodeID, toPort int) error {
	_, err := b.g.Connect(from.node, from.port, to, toPort, b.freshLabel())
	return err
}

// build compiles e and returns the port producing its value.
func (b *exprBuilder) build(e expr.Expr) (outPort, error) {
	switch n := e.(type) {
	case expr.Lit:
		id := b.g.AddConst(b.freshName("lit"), n.Val)
		return outPort{node: id, port: 0}, nil
	case expr.Var:
		if b.varResolve != nil {
			return b.varResolve(n.Name)
		}
		p, ok := b.src[n.Name]
		if !ok {
			return outPort{}, fmt.Errorf("variable %s is not bound by the replace list", n.Name)
		}
		return p, nil
	case expr.Unary:
		if n.Op == "!" {
			// Logical negation over 1/0 control operands: 1 - x.
			x, err := b.build(n.X)
			if err != nil {
				return outPort{}, err
			}
			id := b.g.AddArithImmLeft(b.freshName("not"), "-", value.Int(1))
			if err := b.connect(x, id, 0); err != nil {
				return outPort{}, err
			}
			return outPort{node: id, port: 0}, nil
		}
		x, err := b.build(n.X)
		if err != nil {
			return outPort{}, err
		}
		id := b.g.AddUnary(b.freshName("un"), n.Op)
		if err := b.connect(x, id, 0); err != nil {
			return outPort{}, err
		}
		return outPort{node: id, port: 0}, nil
	case expr.Binary:
		switch n.Op {
		// Boolean connectives over 1/0 control operands (comparison
		// vertices emit exactly 1 or 0, Algorithm 1 lines 25-27), so
		// conjunction is a product and disjunction is a+b-a*b. This is how
		// multi-comparison conditions like Eq. 2-style guards or the sort
		// example's (i < j) and (a > b) become vertex networks.
		case "and", "&&":
			return b.binaryNode(b.g.AddArith(b.freshName("and"), "*"), n.L, n.R)
		case "or", "||":
			sum, err := b.binaryNode(b.g.AddArith(b.freshName("orSum"), "+"), n.L, n.R)
			if err != nil {
				return outPort{}, err
			}
			prod, err := b.binaryNode(b.g.AddArith(b.freshName("orProd"), "*"), n.L, n.R)
			if err != nil {
				return outPort{}, err
			}
			id := b.g.AddArith(b.freshName("or"), "-")
			if err := b.connect(sum, id, 0); err != nil {
				return outPort{}, err
			}
			if err := b.connect(prod, id, 1); err != nil {
				return outPort{}, err
			}
			return outPort{node: id, port: 0}, nil
		}
		var id dataflow.NodeID
		switch {
		case isArithOp(n.Op):
			id = b.g.AddArith(b.freshName("op"), n.Op)
		case isCompareOp(n.Op):
			id = b.g.AddCompare(b.freshName("cmp"), n.Op)
		default:
			return outPort{}, fmt.Errorf("operator %q has no dataflow vertex", n.Op)
		}
		return b.binaryNode(id, n.L, n.R)
	}
	return outPort{}, fmt.Errorf("expression %s has no dataflow form", e)
}

// binaryNode builds both operand subtrees and wires them into id.
func (b *exprBuilder) binaryNode(id dataflow.NodeID, left, right expr.Expr) (outPort, error) {
	l, err := b.build(left)
	if err != nil {
		return outPort{}, err
	}
	r, err := b.build(right)
	if err != nil {
		return outPort{}, err
	}
	if err := b.connect(l, id, 0); err != nil {
		return outPort{}, err
	}
	if err := b.connect(r, id, 1); err != nil {
		return outPort{}, err
	}
	return outPort{node: id, port: 0}, nil
}

// emitProduct compiles one product template into a terminal edge. resolve,
// when non-nil, routes variable (and literal) sources through steers.
func (b *exprBuilder) emitProduct(tpl gamma.Template, idx int, suffix string, resolve func(e expr.Expr) (outPort, error)) error {
	label := templateLabel(tpl, idx) + suffix
	valueExpr := tpl[0]
	old := b.varResolve
	if resolve != nil {
		// Literal-only products must also be gated by the condition, so the
		// whole expression goes through resolve when it has no variables.
		if len(expr.FreeVars(valueExpr)) == 0 {
			p, err := resolve(valueExpr)
			if err != nil {
				return err
			}
			_, err = b.g.Connect(p.node, p.port, dataflow.NoNode, 0, label)
			return err
		}
		b.varResolve = func(name string) (outPort, error) { return resolve(expr.Var{Name: name}) }
	}
	p, err := b.build(valueExpr)
	b.varResolve = old
	if err != nil {
		return err
	}
	_, err = b.g.Connect(p.node, p.port, dataflow.NoNode, 0, label)
	return err
}

// templateLabel extracts the product's element label: its second field when
// that is a string literal, else a synthetic name.
func templateLabel(tpl gamma.Template, idx int) string {
	if len(tpl) >= 2 {
		if lit, ok := tpl[1].(expr.Lit); ok && lit.Val.Kind() == value.KindString {
			return lit.Val.AsString()
		}
	}
	return fmt.Sprintf("out%d", idx)
}

// steerSet lazily creates one steer per routed source, with all steers driven
// by the same control port (Algorithm 2 lines 10-11).
type steerSet struct {
	b     *exprBuilder
	ctl   outPort
	byVar map[string]dataflow.NodeID
}

func (s *steerSet) steerFor(src outPort, key string) (dataflow.NodeID, error) {
	if key != "" {
		if id, ok := s.byVar[key]; ok {
			return id, nil
		}
	}
	id := s.b.g.AddSteer(s.b.freshName("st"))
	if err := s.b.connect(src, id, 0); err != nil {
		return 0, err
	}
	if err := s.b.connect(s.ctl, id, 1); err != nil {
		return 0, err
	}
	if key != "" {
		s.byVar[key] = id
	}
	return id, nil
}

func (s *steerSet) port(e expr.Expr, steerPort int) (outPort, error) {
	var src outPort
	key := ""
	switch n := e.(type) {
	case expr.Var:
		p, ok := s.b.src[n.Name]
		if !ok {
			return outPort{}, fmt.Errorf("variable %s is not bound by the replace list", n.Name)
		}
		src, key = p, n.Name
	default:
		p, err := s.b.build(e)
		if err != nil {
			return outPort{}, err
		}
		src = p
	}
	id, err := s.steerFor(src, key)
	if err != nil {
		return outPort{}, err
	}
	return outPort{node: id, port: steerPort}, nil
}

func (s *steerSet) truePort(e expr.Expr) (outPort, error) {
	return s.port(e, dataflow.PortTrue)
}

func (s *steerSet) falsePort(e expr.Expr) (outPort, error) {
	return s.port(e, dataflow.PortFalse)
}

// MapResult reports one MapMultiset execution.
type MapResult struct {
	// Instances is the number of subgraph instances created — Fig. 4 shows 3
	// instances covering a 6-element multiset with an arity-2 reaction.
	Instances int
	// Firings accumulates vertex activations across all instances.
	Firings int64
}

// MapMultiset is Algorithm 2's step 2, the multiset-to-dataflow mapping of
// Fig. 4 (which the paper describes but leaves unspecified: "the algorithm
// that efficiently maps elements to dataflow graph is complex and beyond the
// scope of this work"). The implemented semantics, documented in DESIGN.md:
// repeatedly (a) find an enabled match of r in m using the Gamma matcher —
// the same enabling test as the runtime, so mapping terminates exactly when
// Γ does; (b) instantiate the reaction's subgraph by setting the matched
// values as its roots; (c) run the instance; (d) feed its terminal tokens
// back into m as elements. The multiset m is modified in place. opt bounds
// each instance (MaxFirings is per instance); ctx bounds the whole mapping
// and is checked between instances.
func MapMultiset(ctx context.Context, r *gamma.Reaction, m *multiset.Multiset, opt dataflow.Options) (*MapResult, error) {
	proto, err := ReactionToGraph(r)
	if err != nil {
		return nil, err
	}
	// Per-label element reconstruction: the dataflow instance computes the
	// product's value field; the remaining fields (label, tag, indices) are
	// re-evaluated from the product template under the match bindings. The
	// true branch registers its templates first so colliding labels keep the
	// "#f"-suffixed false-side entries separate.
	meta := make(map[string]gamma.Template)
	idx := 0
	for bi, br := range r.Branches {
		for _, tpl := range br.Products {
			// Synthetic out<idx> names count across branches, mirroring the
			// numbering emitProduct uses while building the subgraph.
			label := templateLabel(tpl, idx)
			idx++
			if bi > 0 {
				if _, dup := meta[label]; dup {
					label += "#f"
				}
			}
			meta[label] = tpl
		}
	}

	res := &MapResult{}
	for {
		if err := ctx.Err(); err != nil {
			return res, rt.FromContext(err)
		}
		match, err := gamma.FindMatch(r, m, nil)
		if err != nil {
			return res, err
		}
		if match == nil {
			return res, nil
		}
		if !m.TryRemoveAll(match.Chosen) {
			return res, fmt.Errorf("core: matched elements vanished during mapping")
		}
		res.Instances++
		// An instance is the subgraph with the matched values as its roots:
		// SetConst keeps the graph's version, so all of them run on one plan.
		for _, n := range proto.RootNodes() {
			if v, ok := match.Env[n.Name]; ok {
				if err := proto.SetConst(n.ID, v); err != nil {
					return res, err
				}
			}
		}
		run, err := dataflow.RunContext(ctx, proto, opt)
		if err != nil {
			return res, err
		}
		res.Firings += run.Firings
		for label, vals := range run.Outputs {
			tpl, ok := meta[label]
			if !ok {
				return res, fmt.Errorf("core: instance output %s has no product template", label)
			}
			for _, tv := range vals {
				tuple := make(multiset.Tuple, len(tpl))
				tuple[0] = tv.Val
				for f := 1; f < len(tpl); f++ {
					fv, err := expr.Eval(tpl[f], match.Env)
					if err != nil {
						return res, fmt.Errorf("core: product field %d of %s: %w", f, label, err)
					}
					tuple[f] = fv
				}
				m.Add(tuple)
			}
		}
	}
}
