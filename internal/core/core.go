// Package core implements the paper's primary contribution: the equivalence
// between the dynamic dataflow model and Gamma, as two executable
// translations plus the supporting transformations.
//
//   - Algorithm 1 (§III-B): ToGamma converts a dynamic dataflow graph into a
//     Gamma program — vertices become reactions, edges become multiset
//     elements [value, label, tag], and the initial multiset comes from the
//     root vertices.
//   - Algorithm 2 (§III-B): ReactionToGraph converts one reaction into a
//     dataflow subgraph whose terminal edges carry productLabels' labels, and
//     MapMultiset performs the step-2 mapping of the multiset onto replicated
//     instances of that subgraph (Fig. 4): each instance is one Gamma match,
//     read through the reaction's compiled kernel (Reaction.Compile), one run
//     of the subgraph, and one commit of its outputs back into the multiset.
//   - ProgramToGraph composes the reverse direction for whole programs using
//     the reaction classifier (the paper's future work: recognizing steer and
//     inctag vertices from reaction behaviour).
//   - Reduce implements the §III-A3 reductions: fusing chains of reactions
//     into coarser-grained ones (Rd1), trading match parallelism for reaction
//     count.
package core

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gamma"
	"repro/internal/multiset"
	"repro/internal/value"
)

// TagVar is the variable name used for the iteration-tag field in generated
// reactions, the paper's v.
const TagVar = "v"

// ToGamma is Algorithm 1: it converts a dynamic dataflow graph into an
// equivalent Gamma program and the initial multiset induced by the graph's
// root (const) vertices. Every element is the triplet [value, label, tag] the
// algorithm prescribes; the paper's Example-1 pairs are the degenerate case
// where tags are never incremented.
//
// The translation, per vertex kind (Algorithm 1's case analysis):
//
//   - root vertices contribute [value, outLabel, 0] to the initial multiset
//     (line 9);
//   - steer vertices become two-branch reactions keyed on the control operand
//     (lines 13-19);
//   - inctag vertices become reactions producing tag+1 (lines 21-22);
//   - comparison vertices produce 1/0 control elements on all out edges
//     (lines 23-28);
//   - arithmetic vertices produce their operation's value on all out edges
//     (lines 29-33).
//
// A vertex input port fed by several edges (a merge point, like R11's A1/A11
// in Fig. 2) binds its label field to a fresh variable constrained by a
// label-disjunction condition, exactly the (x=='A1') or (x=='A11') device of
// the paper's listings.
func ToGamma(g *dataflow.Graph) (*gamma.Program, *multiset.Multiset, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	init := multiset.New()
	var reactions []*gamma.Reaction
	for _, n := range g.Nodes {
		if n.Kind == dataflow.KindConst {
			for _, e := range n.Out[0] {
				init.Add(multiset.Tuple{n.Init, value.Str(g.Edges[e].Label), value.Int(0)})
			}
			continue
		}
		r, err := vertexToReaction(g, n)
		if err != nil {
			return nil, nil, err
		}
		reactions = append(reactions, r)
	}
	prog, err := gamma.NewProgram(g.Name, reactions...)
	if err != nil {
		return nil, nil, fmt.Errorf("core: algorithm 1 emitted an invalid reaction: %w", err)
	}
	return prog, init, nil
}

// inputSpec describes one input port for conversion: the value variable name
// and either a fixed label or a label variable with its accepted set.
type inputSpec struct {
	valueVar string
	labels   []string // accepted edge labels, len>=1
	labelVar string   // non-empty when len(labels) > 1 (merge port)
}

// vertexToReaction emits the reaction for one non-const vertex.
func vertexToReaction(g *dataflow.Graph, n *dataflow.Node) (*gamma.Reaction, error) {
	specs := make([]inputSpec, len(n.In))
	var patterns []gamma.Pattern
	var mergeConds []expr.Expr
	for port, ins := range n.In {
		spec := inputSpec{valueVar: fmt.Sprintf("id%d", port+1)}
		for _, e := range ins {
			spec.labels = append(spec.labels, g.Edges[e].Label)
		}
		sort.Strings(spec.labels)
		var labelField gamma.Field
		if len(spec.labels) > 1 {
			spec.labelVar = fmt.Sprintf("x%d", port+1)
			labelField = gamma.FVar(spec.labelVar)
			var disj expr.Expr
			for _, l := range spec.labels {
				eq := expr.Binary{Op: "==", L: expr.Var{Name: spec.labelVar}, R: expr.Lit{Val: value.Str(l)}}
				if disj == nil {
					disj = eq
				} else {
					disj = expr.Binary{Op: "or", L: disj, R: eq}
				}
			}
			mergeConds = append(mergeConds, disj)
		} else {
			labelField = gamma.FLabel(spec.labels[0])
		}
		patterns = append(patterns, gamma.Pattern{
			gamma.FVar(spec.valueVar), labelField, gamma.FVar(TagVar),
		})
		specs[port] = spec
	}

	// conj folds the merge conditions with an extra conjunct.
	conj := func(extra expr.Expr) expr.Expr {
		cond := extra
		for _, mc := range mergeConds {
			if cond == nil {
				cond = mc
			} else {
				cond = expr.Binary{Op: "and", L: mc, R: cond}
			}
		}
		return cond
	}
	// products builds one template per out edge of port, all carrying val
	// with the tag expression tagE.
	products := func(port int, val, tagE expr.Expr) []gamma.Template {
		var out []gamma.Template
		for _, e := range n.Out[port] {
			out = append(out, gamma.Template{val, expr.Lit{Val: value.Str(g.Edges[e].Label)}, tagE})
		}
		return out
	}
	tagSame := expr.Var{Name: TagVar}
	r := &gamma.Reaction{Name: n.Name, Patterns: patterns}

	switch n.Kind {
	case dataflow.KindArith, dataflow.KindCompare:
		left, right := expr.Expr(expr.Var{Name: specs[0].valueVar}), expr.Expr(nil)
		if n.Imm.IsValid() {
			right = expr.Lit{Val: n.Imm}
			if n.ImmLeft {
				left, right = right, expr.Expr(expr.Var{Name: specs[0].valueVar})
			}
		} else {
			right = expr.Var{Name: specs[1].valueVar}
		}
		opExpr := expr.Binary{Op: n.Op, L: left, R: right}
		if n.Kind == dataflow.KindArith {
			r.Branches = []gamma.Branch{{Cond: conj(nil), Products: products(0, opExpr, tagSame)}}
			break
		}
		// Comparison: 1 on the true branch, 0 otherwise (Algorithm 1 lines
		// 25-27). With merge conditions present both branches must test them
		// explicitly; otherwise use the paper's if/else shape.
		one := expr.Lit{Val: value.Int(1)}
		zero := expr.Lit{Val: value.Int(0)}
		trueBr := gamma.Branch{Cond: conj(opExpr), Products: products(0, one, tagSame)}
		var falseBr gamma.Branch
		if len(mergeConds) > 0 {
			falseBr = gamma.Branch{Cond: conj(expr.Unary{Op: "!", X: opExpr}), Products: products(0, zero, tagSame)}
		} else {
			falseBr = gamma.Branch{Products: products(0, zero, tagSame)}
		}
		r.Branches = []gamma.Branch{trueBr, falseBr}
	case dataflow.KindSteer:
		data := expr.Var{Name: specs[0].valueVar}
		ctl := expr.Binary{Op: "==", L: expr.Var{Name: specs[1].valueVar}, R: expr.Lit{Val: value.Int(1)}}
		trueBr := gamma.Branch{Cond: conj(ctl), Products: products(dataflow.PortTrue, data, tagSame)}
		var falseBr gamma.Branch
		if len(mergeConds) > 0 {
			notCtl := expr.Binary{Op: "==", L: expr.Var{Name: specs[1].valueVar}, R: expr.Lit{Val: value.Int(0)}}
			falseBr = gamma.Branch{Cond: conj(notCtl), Products: products(dataflow.PortFalse, data, tagSame)}
		} else {
			falseBr = gamma.Branch{Products: products(dataflow.PortFalse, data, tagSame)}
		}
		r.Branches = []gamma.Branch{trueBr, falseBr}
	case dataflow.KindIncTag:
		val := expr.Var{Name: specs[0].valueVar}
		tagNext := expr.Binary{Op: "+", L: expr.Var{Name: TagVar}, R: expr.Lit{Val: value.Int(1)}}
		r.Branches = []gamma.Branch{{Cond: conj(nil), Products: products(0, val, tagNext)}}
	case dataflow.KindSetTag:
		val := expr.Var{Name: specs[0].valueVar}
		r.Branches = []gamma.Branch{{Cond: conj(nil), Products: products(0, val, expr.Lit{Val: value.Int(0)})}}
	case dataflow.KindCopy:
		val := expr.Var{Name: specs[0].valueVar}
		r.Branches = []gamma.Branch{{Cond: conj(nil), Products: products(0, val, tagSame)}}
	case dataflow.KindUnaryOp:
		opExpr := expr.Unary{Op: n.Op, X: expr.Var{Name: specs[0].valueVar}}
		r.Branches = []gamma.Branch{{Cond: conj(nil), Products: products(0, opExpr, tagSame)}}
	default:
		return nil, fmt.Errorf("core: cannot convert %s vertex %s", n.Kind, n.Name)
	}
	return r, nil
}

// OutputsFromMultiset extracts the program outputs from a stable multiset:
// for each requested label, the values of the elements carrying it, as
// dataflow-style tagged values sorted by tag. This is how the equivalence
// harness compares a Gamma fixpoint with a dataflow run's terminal tokens.
func OutputsFromMultiset(m *multiset.Multiset, labels []string) map[string][]dataflow.TaggedValue {
	out := make(map[string][]dataflow.TaggedValue)
	for _, label := range labels {
		for _, c := range m.ByLabel(label) {
			tag, _ := c.Tuple.Tag()
			for i := 0; i < c.N; i++ {
				out[label] = append(out[label], dataflow.TaggedValue{Tag: tag, Val: c.Tuple.Value()})
			}
		}
		sort.SliceStable(out[label], func(i, j int) bool { return out[label][i].Tag < out[label][j].Tag })
	}
	return out
}
