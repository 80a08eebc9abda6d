// Package equiv is the empirical equivalence harness for the paper's central
// claim: a dynamic dataflow graph and its Algorithm-1 Gamma translation
// compute the same results. It runs both sides on the same inputs, compares
// the dataflow terminal tokens with the Gamma stable multiset, and checks the
// step-count invariant from the sketch of proof (§III-C): every operator
// firing corresponds to exactly one reaction firing.
//
// The package also provides a seeded random-graph generator so the
// equivalence can be property-tested over arbitrary graphs rather than just
// the paper's two figures.
package equiv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/rt"
	"repro/internal/value"
)

// Options configures a Check run.
type Options struct {
	// GammaWorkers selects the Gamma scheduler (0/1 = sequential
	// deterministic).
	GammaWorkers int
	// DataflowEngine selects the dataflow engine ("" = sequential;
	// dataflow.EngineMatrix = bulk-synchronous).
	DataflowEngine string
	// GammaSeed randomizes the Gamma matcher's nondeterministic choices.
	GammaSeed int64
	// MaxSteps bounds both executions (0 = none); diverging graphs error.
	MaxSteps int64
}

// Report is the outcome of one equivalence check.
type Report struct {
	Equivalent bool
	// Mismatches lists human-readable discrepancies when not equivalent.
	Mismatches []string
	// DataflowOutputs and GammaOutputs are the two observed output maps.
	DataflowOutputs map[string][]dataflow.TaggedValue
	GammaOutputs    map[string][]dataflow.TaggedValue
	// OperatorFirings counts non-const vertex activations; ReactionSteps
	// counts reaction firings. The §III-C correspondence makes them equal.
	OperatorFirings int64
	ReactionSteps   int64
}

// Check converts g with Algorithm 1, runs both models, and compares.
// Check is CheckContext with context.Background().
func Check(g *dataflow.Graph, opt Options) (*Report, error) {
	return CheckContext(context.Background(), g, opt)
}

// CheckContext is Check under a context: the deadline or cancellation
// propagates into both executions, so a diverging side stops promptly.
// Budget exhaustion on either side (Options.MaxSteps) is classified as
// rt.ErrDivergent — for the harness, "didn't stabilize within the budget" is
// evidence of divergence, not an infrastructure failure.
func CheckContext(ctx context.Context, g *dataflow.Graph, opt Options) (*Report, error) {
	dfRes, err := dataflow.RunContext(ctx, g, dataflow.Options{MaxFirings: opt.MaxSteps, Engine: opt.DataflowEngine})
	if err != nil {
		return nil, fmt.Errorf("equiv: dataflow run: %w", markBudget(err))
	}
	prog, init, err := core.ToGamma(g)
	if err != nil {
		return nil, fmt.Errorf("equiv: conversion: %w", err)
	}
	gmStats, err := gamma.RunContext(ctx, prog, init, gamma.Options{
		Workers: opt.GammaWorkers, Seed: opt.GammaSeed, MaxSteps: 4 * opt.MaxSteps,
	})
	if err != nil {
		return nil, fmt.Errorf("equiv: gamma run: %w", markBudget(err))
	}

	rep := &Report{
		DataflowOutputs: dfRes.Outputs,
		GammaOutputs:    core.OutputsFromMultiset(init, g.OutputLabels()),
		ReactionSteps:   gmStats.Steps,
	}
	constFirings := int64(len(g.RootNodes()))
	rep.OperatorFirings = dfRes.Firings - constFirings

	rep.Equivalent = true
	labels := make(map[string]bool)
	for l := range rep.DataflowOutputs {
		labels[l] = true
	}
	for l := range rep.GammaOutputs {
		labels[l] = true
	}
	sorted := make([]string, 0, len(labels))
	for l := range labels {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	for _, l := range sorted {
		if !reflect.DeepEqual(rep.DataflowOutputs[l], rep.GammaOutputs[l]) {
			rep.Equivalent = false
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
				"output %s: dataflow %v, gamma %v", l, rep.DataflowOutputs[l], rep.GammaOutputs[l]))
		}
	}
	// Non-output elements left in the stable multiset must correspond one to
	// one with operands stuck in the dataflow matching stores (tokens whose
	// partner operand a steer discarded). Both counts being equal is part of
	// the §III-C correspondence: an element awaiting a reaction is exactly an
	// operand awaiting a firing.
	residual := init.Len()
	for _, vs := range rep.GammaOutputs {
		residual -= len(vs)
	}
	if residual != dfRes.Pending {
		rep.Equivalent = false
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"stuck-operand correspondence broken: %d dataflow pending operands vs %d residual elements in %s",
			dfRes.Pending, residual, init))
	}
	if rep.OperatorFirings != rep.ReactionSteps {
		rep.Equivalent = false
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"firing correspondence broken: %d operator firings vs %d reaction steps",
			rep.OperatorFirings, rep.ReactionSteps))
	}
	return rep, nil
}

// markBudget classifies a step-budget overrun as divergence for the harness's
// callers while leaving every other error (cancellation, deadline, vertex
// faults) untouched.
func markBudget(err error) error {
	if errors.Is(err, rt.ErrMaxSteps) {
		return rt.Mark(rt.ErrDivergent, err)
	}
	return err
}

// RandomGraph generates a seeded random acyclic dataflow graph with roots
// const inputs and n operator vertices drawn from arithmetic ({+ - *},
// avoiding data-dependent division errors), comparisons, unary negation,
// copies and steers. Steer control inputs are always comparison outputs, the
// 1/0 control convention of the paper. Every dangling operator output
// becomes a program output edge.
func RandomGraph(seed int64, roots, n int) *dataflow.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := dataflow.NewGraph(fmt.Sprintf("rand%d", seed))

	type src struct {
		node    dataflow.NodeID
		port    int
		control bool // produced by a comparison (safe steer control)
	}
	var sources []src
	edgeN := 0
	label := func() string {
		edgeN++
		return fmt.Sprintf("e%d", edgeN)
	}
	connect := func(s src, to dataflow.NodeID, port int) {
		if _, err := g.Connect(s.node, s.port, to, port, label()); err != nil {
			panic(fmt.Sprintf("equiv: random graph wiring failed: %v", err))
		}
	}

	for i := 0; i < roots; i++ {
		id := g.AddConst(fmt.Sprintf("in%d", i), value.Int(int64(rng.Intn(41)-20)))
		sources = append(sources, src{node: id, port: 0})
	}
	pick := func() src { return sources[rng.Intn(len(sources))] }
	pickControl := func() (src, bool) {
		var ctls []src
		for _, s := range sources {
			if s.control {
				ctls = append(ctls, s)
			}
		}
		if len(ctls) == 0 {
			return src{}, false
		}
		return ctls[rng.Intn(len(ctls))], true
	}

	arithOps := []string{"+", "-", "*"}
	cmpOps := []string{"==", "!=", "<", "<=", ">", ">="}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // arith
			op := arithOps[rng.Intn(len(arithOps))]
			var id dataflow.NodeID
			if rng.Intn(3) == 0 {
				imm := value.Int(int64(rng.Intn(9) + 1))
				if rng.Intn(2) == 0 {
					id = g.AddArithImm(fmt.Sprintf("op%d", i), op, imm)
				} else {
					id = g.AddArithImmLeft(fmt.Sprintf("op%d", i), op, imm)
				}
				connect(pick(), id, 0)
			} else {
				id = g.AddArith(fmt.Sprintf("op%d", i), op)
				connect(pick(), id, 0)
				connect(pick(), id, 1)
			}
			sources = append(sources, src{node: id, port: 0})
		case 4, 5: // compare
			op := cmpOps[rng.Intn(len(cmpOps))]
			var id dataflow.NodeID
			if rng.Intn(2) == 0 {
				id = g.AddCompareImm(fmt.Sprintf("cmp%d", i), op, value.Int(int64(rng.Intn(21)-10)))
				connect(pick(), id, 0)
			} else {
				id = g.AddCompare(fmt.Sprintf("cmp%d", i), op)
				connect(pick(), id, 0)
				connect(pick(), id, 1)
			}
			sources = append(sources, src{node: id, port: 0, control: true})
		case 6: // unary negation
			id := g.AddUnary(fmt.Sprintf("neg%d", i), "-")
			connect(pick(), id, 0)
			sources = append(sources, src{node: id, port: 0})
		case 7: // copy
			id := g.AddCopy(fmt.Sprintf("cp%d", i))
			connect(pick(), id, 0)
			sources = append(sources, src{node: id, port: 0})
		default: // steer, when a control source exists
			ctl, ok := pickControl()
			if !ok {
				id := g.AddArith(fmt.Sprintf("op%d", i), "+")
				connect(pick(), id, 0)
				connect(pick(), id, 1)
				sources = append(sources, src{node: id, port: 0})
				continue
			}
			id := g.AddSteer(fmt.Sprintf("st%d", i))
			connect(pick(), id, 0)
			connect(ctl, id, 1)
			sources = append(sources, src{node: id, port: dataflow.PortTrue})
			sources = append(sources, src{node: id, port: dataflow.PortFalse})
		}
	}
	// Terminal edges for every port that has no consumers yet.
	hasConsumer := make(map[[2]int]bool)
	for _, e := range g.Edges {
		hasConsumer[[2]int{int(e.From), e.FromPort}] = true
	}
	outN := 0
	for _, s := range sources {
		if !hasConsumer[[2]int{int(s.node), s.port}] {
			if _, err := g.ConnectOut(s.node, s.port, fmt.Sprintf("out%d", outN)); err != nil {
				panic(fmt.Sprintf("equiv: random graph output failed: %v", err))
			}
			outN++
		}
	}
	return g
}
