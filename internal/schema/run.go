package schema

// The run pipeline, one site per phase for gammad, the cmd/ tools and the
// facade: load (LoadGamma, LoadGraph), lower (RunSpec.Lower), run (Job.Run),
// fold and result (Outcome.Metrics, Outcome.Result), and replay (Job.Replay).

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/telemetry"
)

// Lower turns the spec into both runtimes' options, with the process-local
// hooks no wire carries: sched records every committed firing, fault runs
// before each one; either may be nil.
func (s RunSpec) Lower(sched *replay.Recorder, fault rt.FaultInjector) (gamma.Options, dataflow.Options) {
	gopt := gamma.Options{Workers: s.EffectiveWorkers(), Seed: s.Seed, MaxSteps: s.MaxSteps, FaultInjector: fault}
	dopt := dataflow.Options{MaxFirings: s.MaxSteps, FaultInjector: fault}
	if sched != nil { // a typed nil would defeat the engines' untraced path
		gopt.Schedule, dopt.Schedule = sched, sched
	}
	return gopt, dopt
}

// EngineLabel is the engine that actually executes a run of kind, which the
// service's engine dimension and stats report: EngineAuto resolves by
// Workers, and every dataflow run is seq (its runtime has one schedule).
func (s RunSpec) EngineLabel(kind string) string {
	switch {
	case kind == KindDataflow || s.Engine == EngineAuto && s.Workers <= 1:
		return EngineSeq
	case s.Engine == EngineAuto:
		return EngineParallel
	}
	return s.Engine
}

// Job is one loaded run: a Γ plan over Init, or a dataflow Graph. Init is
// nil when neither the source nor the override declares one; the caller
// decides what that means.
type Job struct {
	// Name names the plan (its stages print as Name.0, Name.1, ... in
	// errors) and the program a replay runs.
	Name string
	Plan *gamma.Plan
	// Reactions is every reaction the source declares, composed or not.
	Reactions []*gamma.Reaction
	Init      *multiset.Multiset
	Graph     *dataflow.Graph
}

// LoadGamma parses Fig. 3 source, binds the init override (BindInit) and
// builds the plan. Syntax errors are rt.ErrParse, a composition naming an
// unknown reaction rt.ErrInvalid; a malformed override reports between the
// two.
func LoadGamma(name, program, init string) (*Job, error) {
	f, err := gammalang.ParseFile(program)
	if err != nil {
		return nil, err
	}
	j := &Job{Name: name, Reactions: f.Reactions}
	if j.Init, err = BindInit(init, f.Init); err != nil {
		return nil, err
	}
	if j.Plan, err = f.Plan(name); err != nil {
		return nil, rt.Mark(rt.ErrInvalid, err)
	}
	return j, nil
}

// BindInit returns the multiset a run starts from: init, a multiset literal,
// or src, the program's own, when init is "". A malformed literal is
// rt.ErrParse.
func BindInit(init string, src *multiset.Multiset) (*multiset.Multiset, error) {
	if init == "" {
		return src, nil
	}
	m, err := multiset.Parse(init)
	if err != nil {
		return nil, rt.Mark(rt.ErrParse, err)
	}
	return m, nil
}

// LoadGraph decodes dfir text or, with compile, translates von Neumann
// source into a graph called name. Its errors are rt.ErrParse.
func LoadGraph(name, src string, compile bool) (*Job, error) {
	var g *dataflow.Graph
	var err error
	if compile {
		g, err = compiler.Compile(name, src)
	} else {
		g, err = dfir.Unmarshal(src)
	}
	if err != nil {
		return nil, err
	}
	return &Job{Name: name, Graph: g}, nil
}

// Outcome is what one Job.Run did, partial work on an early exit included:
// a Γ run's Stats and |Init| before it (M0), or a dataflow run's Result (nil
// when the engine refused the graph), and the wall time.
type Outcome struct {
	Job      *Job
	M0       int
	Stats    *gamma.Stats
	Dataflow *dataflow.Result
	Wall     time.Duration
}

// Run executes the job under ctx with the options of its kind, timing it; a
// Γ run rewrites Init into its final state. The Outcome is never nil.
func (j *Job) Run(ctx context.Context, gopt gamma.Options, dopt dataflow.Options) (*Outcome, error) {
	out := &Outcome{Job: j}
	var err error
	start := time.Now()
	if j.Graph != nil {
		out.Dataflow, err = dataflow.RunContext(ctx, j.Graph, dopt)
	} else {
		out.M0 = j.Init.Len()
		out.Stats, err = j.Plan.RunContext(ctx, j.Init, gopt)
	}
	out.Wall = time.Since(start)
	return out, err
}

// Result renders the outcome as the wire RunResult.
func (o *Outcome) Result() *RunResult {
	res := &RunResult{WallMS: float64(o.Wall.Nanoseconds()) / 1e6}
	switch {
	case o.Stats != nil:
		res.Steps, res.Multiset = o.Stats.Steps, o.Job.Init.String()
	case o.Dataflow != nil:
		res.Steps, res.Outputs = o.Dataflow.Firings, wireOutputs(o.Dataflow.Outputs)
	}
	return res
}

// Metrics is the run-end fold of the outcome and the run's recorded
// schedule s into a registry; nil when nothing ran.
func (o *Outcome) Metrics(s *replay.Schedule) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	switch {
	case o.Stats != nil:
		replay.GammaMetrics(reg, o.Job.Plan, o.M0, o.Stats, s)
	case o.Dataflow != nil:
		replay.DataflowMetrics(reg, o.Job.Graph, o.Dataflow, s)
	default:
		return nil
	}
	return reg
}

// wireOutputs renders terminal-edge tokens as "value@tag".
func wireOutputs(outputs map[string][]dataflow.TaggedValue) map[string][]string {
	wire := make(map[string][]string, len(outputs))
	for label, series := range outputs {
		out := make([]string, len(series))
		for i, tv := range series {
			out[i] = fmt.Sprintf("%s@%d", tv.Val, tv.Tag)
		}
		wire[label] = out
	}
	return wire
}

// Replayed is what Job.Replay found: the result of the job's model and the
// divergence, nil when every step was reproduced.
type Replayed struct {
	Gamma      *replay.GammaResult
	Dataflow   *replay.DataflowResult
	Divergence *replay.Divergence
}

// Replay reads a recorded schedule document from r and re-executes it step
// for step against the job: a dataflow job's graph, or a Γ job's Init
// (which it rewrites) under the union of the plan's stages. Errors are
// unusable schedules; a divergence is a finding.
func (j *Job) Replay(r io.Reader) (*Replayed, error) {
	s, err := replay.Parse(r)
	if err != nil {
		return nil, err
	}
	if j.Graph != nil {
		res, err := replay.ReplayDataflow(j.Graph, s)
		if err != nil {
			return nil, err
		}
		return &Replayed{Dataflow: res, Divergence: res.Divergence}, nil
	}
	// The recorded order already respects the stage boundaries; stability is
	// judged against the union, which at the recorded final state of the
	// programs run here is the last stage's. The stages were validated with
	// the plan.
	prog := &gamma.Program{Name: j.Name}
	for _, stage := range j.Plan.Stages {
		prog.Reactions = append(prog.Reactions, stage.Reactions...)
	}
	res, err := replay.ReplayGamma(prog, j.Init, s)
	if err != nil {
		return nil, err
	}
	return &Replayed{Gamma: res, Divergence: res.Divergence}, nil
}

// Err is the divergence as an rt.ErrInvalid error.
func (r *Replayed) Err() error {
	if d := r.Divergence; d != nil {
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("replay diverged at step %d (%s)", d.Step, d.Reason))
	}
	return nil
}

// Response renders the replay as the wire ReplayResponse.
func (r *Replayed) Response() *ReplayResponse {
	resp := &ReplayResponse{Version: WireVersion, Kind: KindGamma, Divergence: r.Divergence}
	if g := r.Gamma; g != nil {
		resp.Steps, resp.Stable, resp.Multiset = g.Steps, g.Stable, g.Final.String()
	} else {
		d := r.Dataflow
		resp.Kind, resp.Steps, resp.Stable, resp.Pending = KindDataflow, d.Steps, d.Stable, d.Pending
		resp.Outputs = wireOutputs(d.Outputs)
	}
	return resp
}
