// Package gammaflow is the public API of the reproduction of "Exploring the
// Equivalence between Dynamic Dataflow Model and Gamma — General Abstract
// Model for Multiset mAnipulation" (Mello Jr et al., IPPS 2019,
// arXiv:1811.00607).
//
// It re-exports the stable surface of the internal packages:
//
//   - the Gamma runtime (multiset rewriting with sequential and parallel
//     execution) and the Gamma source language of the paper's Fig. 3 grammar;
//   - the dynamic dataflow runtime (tagged tokens, steer/inctag vertices,
//     one FIFO schedule on one core);
//   - Algorithm 1 (dataflow → Gamma) and Algorithm 2 (Gamma → dataflow),
//     the reaction classifier, the multiset mapper of Fig. 4, and the
//     §III-A3 reduction engine;
//   - the mini imperative compiler that derives graphs from the paper's
//     von Neumann sources, and the equivalence checking harness.
//
// Quick start — run the paper's Example 1 in both models, under a deadline
// (the context-first entry points are the primary API; RunGraph/RunProgram
// are the same calls with context.Background()):
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	g, _ := gammaflow.CompileSource("ex1", `
//	    int x = 1; int y = 5; int k = 3; int j = 2; int m;
//	    m = (x + y) - (k * j);`)
//	res, _ := gammaflow.RunGraphContext(ctx, g, gammaflow.GraphOptions{})
//	prog, init, _ := gammaflow.ToGamma(g)
//	gammaflow.RunProgramContext(ctx, prog, init, gammaflow.ProgramOptions{})
//	// res.Output("m") and init now both hold m = 0.
//
// Every run returns partial statistics alongside its error on early exit,
// and errors are classified (ErrDeadline, ErrCanceled, ErrMaxSteps,
// *PanicError, ...) for errors.Is / errors.As routing; see the error
// taxonomy section below.
package gammaflow

import (
	"context"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/schema"
	"repro/internal/value"
)

// Error taxonomy. Every error returned by the Run functions is classified
// under exactly one of these classes (plus the typed *PanicError), so callers
// route failures with errors.Is / errors.As instead of string matching. ErrDeadline and ErrCanceled additionally satisfy
// errors.Is against context.DeadlineExceeded / context.Canceled.
var (
	// ErrMaxSteps classifies step/firing-budget exhaustion in either model.
	ErrMaxSteps = rt.ErrMaxSteps
	// ErrCanceled classifies runs stopped by context cancellation.
	ErrCanceled = rt.ErrCanceled
	// ErrDeadline classifies runs stopped by a context deadline.
	ErrDeadline = rt.ErrDeadline
	// ErrDivergent classifies executions judged non-terminating (equivalence
	// harness budget overruns).
	ErrDivergent = rt.ErrDivergent
	// ErrParse classifies source-language syntax errors.
	ErrParse = rt.ErrParse
	// ErrInvalid classifies structurally invalid programs and graphs.
	ErrInvalid = rt.ErrInvalid
)

type (
	// PanicError reports a panic recovered inside a worker or processing
	// element, with the runtime, reaction/vertex and worker identity attached.
	PanicError = rt.PanicError
	// FaultInjector is a test hook invoked before every reaction or vertex
	// application; see ProgramOptions.FaultInjector.
	FaultInjector = rt.FaultInjector
)

// Firing schedules: the one way to observe a run's firings. A
// ScheduleRecorder attached as RunConfig.Schedule receives every committed
// firing in both runtimes; its Schedule() is the commit-ordered firing
// history (§III-C), which replays step for step and from which every
// analysis is a fold over its firing DAG — rec.Schedule().Profile() for the
// work/span ProfileReport.
//
// Build one ScheduleRecorder per run with NewScheduleRecorder.
type ScheduleRecorder = replay.Recorder

// Schedule kinds: the runtime a ScheduleRecorder is attached to.
const (
	ScheduleGamma    = replay.KindGamma
	ScheduleDataflow = replay.KindDataflow
)

// NewScheduleRecorder returns an empty recorder for a run of the given kind;
// name labels the schedule.
var NewScheduleRecorder = replay.NewRecorder

// RunSpec is the serializable core of a run configuration: engine, workers,
// seed, step budget and timeout. It is the exact struct the gammad service
// (cmd/gammad) accepts in its wire envelope, so a run is configured from one
// struct whether it executes in-process or over HTTP.
type RunSpec = schema.RunSpec

// Engines selectable in a RunSpec. EngineMatrix is dataflow-only and runs
// the one dataflow schedule, as every dataflow engine value does; Gamma runs
// reject it with ErrInvalid.
const (
	EngineAuto     = schema.EngineAuto
	EngineSeq      = schema.EngineSeq
	EngineParallel = schema.EngineParallel
	EngineMatrix   = schema.EngineMatrix
)

// RunConfig holds the execution knobs shared by both runtimes: the
// serializable RunSpec plus the process-local hooks that cannot travel over
// a wire. It is embedded in ProgramOptions and GraphOptions, so the shared
// knobs are set the same way regardless of model:
//
//	gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{MaxSteps: 1000}}}
//	gammaflow.GraphOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{MaxSteps: 1000}}}
//
// RunSpec.TimeoutMS, when set, bounds the run like a context deadline
// (ErrDeadline); RunSpec.Engine picks EngineSeq or EngineParallel (Gamma),
// or leaves the choice to Workers (EngineAuto); EngineMatrix is accepted on
// dataflow runs only. An
// invalid spec (unknown engine, negative knobs) fails the run with ErrInvalid
// before any execution.
type RunConfig struct {
	// RunSpec holds the serializable knobs (Engine, Workers, Seed, MaxSteps,
	// TimeoutMS), promoted so opt.Workers etc. read as before.
	RunSpec
	// Schedule, when set, records every committed firing with its consumed
	// and produced keys. Process-local: not part of the wire spec.
	Schedule *ScheduleRecorder
}

// Scalar values and tuples.
type (
	// Value is the scalar operand domain shared by both models.
	Value = value.Value
	// Tuple is one multiset element.
	Tuple = multiset.Tuple
	// Multiset is the Gamma model's single database.
	Multiset = multiset.Multiset
)

// Value constructors.
var (
	Int   = value.Int
	Float = value.Float
	Bool  = value.Bool
	Str   = value.Str
)

// Tuple constructors following the paper's element shapes.
var (
	NewMultiset   = multiset.New
	ParseMultiset = multiset.Parse
	Elem          = multiset.Elem
	IntElem       = multiset.IntElem
	PairElem      = multiset.Pair
	ScalarElem    = multiset.New1
)

// Gamma model.
type (
	// Reaction is one (condition, action) pair of the Γ operator.
	Reaction = gamma.Reaction
	// Program is a set of reactions composed in parallel.
	Program = gamma.Program
	// Plan is a sequential composition of parallel reaction groups.
	Plan = gamma.Plan
	// ProgramStats reports a Gamma execution.
	ProgramStats = gamma.Stats
)

// ProgramOptions configures Gamma execution: the shared RunConfig knobs plus
// the Gamma-specific ones.
type ProgramOptions struct {
	RunConfig
	// FaultInjector, when set, runs before every reaction application; a
	// non-nil return aborts the run, a panic exercises worker recovery.
	FaultInjector FaultInjector
}

// validate extends the spec check with the Gamma-side engine constraint:
// EngineMatrix names a dataflow schedule, not a Gamma one.
func (o ProgramOptions) validate() error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Engine == EngineMatrix {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("gammaflow: engine %q runs dataflow graphs only", o.Engine))
	}
	return nil
}

// RunProgramContext executes a Gamma program to its stable state (Eq. 1)
// under ctx. Early exits return partial ProgramStats alongside a classified
// error.
func RunProgramContext(ctx context.Context, p *Program, m *Multiset, opt ProgramOptions) (*ProgramStats, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := opt.RunSpec.Context(ctx)
	defer cancel()
	gopt, _ := opt.Lower(opt.Schedule, opt.FaultInjector)
	return gamma.RunContext(ctx, p, m, gopt)
}

// RunProgram is RunProgramContext with context.Background().
func RunProgram(p *Program, m *Multiset, opt ProgramOptions) (*ProgramStats, error) {
	return RunProgramContext(context.Background(), p, m, opt)
}

// RunPlanContext executes a sequential composition stage by stage under ctx.
func RunPlanContext(ctx context.Context, pl *Plan, m *Multiset, opt ProgramOptions) (*ProgramStats, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := opt.RunSpec.Context(ctx)
	defer cancel()
	gopt, _ := opt.Lower(opt.Schedule, opt.FaultInjector)
	return pl.RunContext(ctx, m, gopt)
}

// RunPlan is RunPlanContext with context.Background().
func RunPlan(pl *Plan, m *Multiset, opt ProgramOptions) (*ProgramStats, error) {
	return RunPlanContext(context.Background(), pl, m, opt)
}

// Termination hints from the static analysis.
const (
	TerminationUnknown    = gamma.TerminationUnknown
	TerminationGuaranteed = gamma.TerminationGuaranteed
	TerminationNever      = gamma.TerminationNever
)

var (
	// AnalyzeTermination applies the syntactic termination criteria
	// (size-decreasing reactions terminate; unconditional self-feeding
	// growth diverges).
	AnalyzeTermination = gamma.AnalyzeTermination
	// NewProgram builds and validates a program.
	NewProgram = gamma.NewProgram
	// SequencePrograms composes programs with the paper's ';' operator.
	SequencePrograms = gamma.Sequence
	// ParseProgram parses Gamma source in the Fig. 3 grammar.
	ParseProgram = gammalang.ParseProgram
	// ParseReaction parses a single reaction.
	ParseReaction = gammalang.ParseReaction
	// ParseGammaFile parses a full source file (init multiset, reactions,
	// composition).
	ParseGammaFile = gammalang.ParseFile
	// FormatProgram renders a program in the paper's listing style.
	FormatProgram = gammalang.Format
)

// Dynamic dataflow model.
type (
	// Graph is a dynamic dataflow program.
	Graph = dataflow.Graph
	// GraphResult reports a dataflow execution.
	GraphResult = dataflow.Result
	// TaggedValue is an output token (value plus iteration tag).
	TaggedValue = dataflow.TaggedValue
)

// GraphOptions configures dataflow execution: the shared RunConfig knobs
// plus the dataflow-specific ones. RunConfig.MaxSteps bounds vertex firings;
// RunConfig.Seed is ignored (the runtime is tag-deterministic), and so are
// RunConfig.Workers, EngineParallel and EngineMatrix: every dataflow run
// executes the one FIFO schedule on one core.
type GraphOptions struct {
	RunConfig
	// FaultInjector, when set, runs before every vertex firing; a non-nil
	// return aborts the run, a panic exercises the engine's recovery.
	FaultInjector FaultInjector
}

// RunGraphContext executes a graph until no token is in flight, under ctx.
// Early exits return a partial GraphResult alongside a classified error.
func RunGraphContext(ctx context.Context, g *Graph, opt GraphOptions) (*GraphResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := opt.RunSpec.Context(ctx)
	defer cancel()
	_, dopt := opt.Lower(opt.Schedule, opt.FaultInjector)
	return dataflow.RunContext(ctx, g, dopt)
}

// RunGraph is RunGraphContext with context.Background().
func RunGraph(g *Graph, opt GraphOptions) (*GraphResult, error) {
	return RunGraphContext(context.Background(), g, opt)
}

var (
	// NewGraph returns an empty graph to build with its Add/Connect methods.
	NewGraph = dataflow.NewGraph
	// MarshalGraph and UnmarshalGraph read/write the dfir text format.
	MarshalGraph   = dfir.Marshal
	UnmarshalGraph = dfir.Unmarshal
	// GraphToDOT renders a graph with the paper's figure conventions.
	GraphToDOT = dfir.ToDOT
)

// The paper's primary contribution: the conversions.
var (
	// ToGamma is Algorithm 1: dataflow graph → Gamma program + initial
	// multiset.
	ToGamma = core.ToGamma
	// ReactionToGraph is Algorithm 2 step 1: one reaction → dataflow
	// subgraph.
	ReactionToGraph = core.ReactionToGraph
	// ProgramToGraph reconstructs a whole graph from a Gamma program using
	// the reaction classifier (the paper's future work).
	ProgramToGraph = core.ProgramToGraph
	// Reduce fuses reaction chains (§III-A3 reductions, Rd1).
	Reduce = core.Reduce
	// OutputsFromMultiset extracts program outputs from a stable multiset.
	OutputsFromMultiset = core.OutputsFromMultiset
)

// MapResult reports one MapMultiset execution.
type MapResult = core.MapResult

// MapMultiset is Algorithm 2 step 2: the Fig. 4 multiset-to-instances
// mapping. The graph instances run under opt: RunConfig.MaxSteps bounds
// each instance's firings, and RunConfig.TimeoutMS the whole mapping
// (ErrDeadline).
func MapMultiset(r *Reaction, m *Multiset, opt GraphOptions) (*MapResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := opt.RunSpec.Context(context.Background())
	defer cancel()
	_, dopt := opt.Lower(opt.Schedule, opt.FaultInjector)
	return core.MapMultiset(ctx, r, m, dopt)
}

// Compilation from the paper's von Neumann mini language.
var (
	// CompileSource translates imperative source into a dataflow graph.
	CompileSource = compiler.Compile
)

// Equivalence checking.
type (
	// EquivOptions configures an equivalence check.
	EquivOptions = equiv.Options
	// EquivReport is the outcome of an equivalence check.
	EquivReport = equiv.Report
)

var (
	// CheckEquivalence runs a graph natively and through Algorithm 1 and
	// compares outputs, stuck operands and firing counts.
	CheckEquivalence = equiv.Check
	// RandomGraph generates seeded random graphs for property testing.
	RandomGraph = equiv.RandomGraph
)

// Structured-Gamma-style static typing (the paper's §II-B: "type checking at
// compile time").
// Schema declares element arities and field types per label.
type Schema = schema.Schema

// InferSchema derives a schema from a program and initial multiset.
var InferSchema = schema.Infer

// ProfileReport is the work/span/parallelism analysis of a recorded run of
// either runtime (the §I benefit of studying Gamma programs with dataflow
// analyses [2]): work, span, parallelism and the depth profile, folded from a
// ScheduleRecorder's rec.Schedule().Profile().
type ProfileReport = replay.ProfileReport
