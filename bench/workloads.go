package main

// The seven workloads. Each has a set-up that builds its seeded inputs (and,
// for the service workloads, boots an in-process gammad), an untraced op, and
// a traced op that drives the same work by hand through each layer's public
// functions with a span around every call.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/value"
)

// instance is one set-up workload.
type instance interface {
	// op runs untraced op i on load goroutine w and returns the latency of
	// the user-visible unit (input generation and the oracle check excluded).
	// A non-nil error is a failed op: the system errored, refused, or
	// disagreed with the oracle.
	op(i, w int) (time.Duration, error)
	// tracedOp runs op i by hand with spans; only one runs at a time.
	tracedOp(i int, tr *tracer) error
	// probes measures the layer figures that are not part of an op.
	probes(p *probe) error
	close()
}

type workload struct {
	name string
	why  string
	// clients is the number of closed-loop load goroutines.
	clients int
	setup   func(seed int64, sh shape) (instance, error)
}

var workloads = []workload{
	{"gamma_min", "label-free Eq. 2 min at n=8192, sequential engine: the all-shard candidate scan (IterAllRot) does the work, labeled indexes none",
		1, func(seed int64, sh shape) (instance, error) { return newGammaInst(seed, sh, "min", gamma.Options{}) }},
	{"gamma_tournament", "14-stage labeled pairwise-min at n=16384, sequential engine: delta scheduler, IterSym and ApplyDelta dominate; the all-shard scan is bypassed",
		1, func(seed int64, sh shape) (instance, error) {
			return newGammaInst(seed, sh, "tournament", gamma.Options{})
		}},
	{"gamma_tournament_par", "same tournament on the parallel engine at workers=2: LockView sessions, batched ApplyDeltas, deques, conflict backoff",
		1, func(seed int64, sh shape) (instance, error) {
			return newGammaInst(seed, sh, "tournament", gamma.Options{Workers: engineWorkers, Seed: 1})
		}},
	{"df_wide", "2048 independent const-compare-steer-chain instances, default dataflow engine: readiness, route and apply dominate; Gamma is untouched",
		1, newWideInst},
	{"equiv_loop", "the paper's pipeline on a 2000-trip loop: compile, dataflow run, Alg. 1, Gamma run, outputs compared: per-step overhead and tag matching on both sides",
		1, newLoopInst},
	{"svc_small", "gammad over loopback HTTP, 2 clients, Example 1 (3 firings) with distinct operands: decode, parse, kernel compile, admission, HTTP and encode are the whole cost",
		loadClients, func(seed int64, sh shape) (instance, error) { return newSvcInst(seed, sh, false) }},
	{"svc_mixed", "same server, 2 clients, seeded mix of tournament n=512, min n=256 and dfir graphs: init-literal parsing, the run and result formatting dominate",
		loadClients, func(seed int64, sh shape) (instance, error) { return newSvcInst(seed, sh, true) }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// poolSize is how many distinct seeded inputs a pooled engine workload
// cycles through.
const poolSize = 4

// ---------------------------------------------------------------- gamma_*

type gammaInput struct {
	init  *multiset.Multiset
	want  string
	steps int64
}

type gammaInst struct {
	kind string // "min" or "tournament"
	n    int
	src  string
	prog *gamma.Program
	opt  gamma.Options
	// The tournaments cycle through a small pool of inputs built in set-up.
	// It is small on purpose: the pool stays live for the whole run, the
	// collector marks it in every cycle, and an op that overlaps a mark phase
	// runs up to 3× slower (write barriers on the multiset's sorted indexes);
	// a pool of 32 made cycles so long and so few that runs stopped repeating.
	inputs []gammaInput
	// gamma_min builds a fresh input for every op instead, outside the op's
	// timing. The sequential matcher's cost on label-free patterns is a
	// lottery over the value set — same-size uniform draws run Eq. 2 in 42 to
	// 131 ms at n=8192, and replacing 1 % of the values re-draws it — so only
	// a median over a run's ~100 layouts repeats across seeds.
	rng *rand.Rand
}

// newGammaProgram parses kind's program for n elements; newGammaInput builds
// one seeded input with its oracle.
func newGammaProgram(kind string, n int) (string, *gamma.Program, error) {
	src := minSource
	if kind == "tournament" {
		src = tournamentSource(log2(n))
	}
	prog, err := gammalang.ParseProgram(kind, src)
	return src, prog, err
}

func newGammaInput(kind string, rng *rand.Rand, n int) gammaInput {
	vs := randInts(rng, n)
	var in gammaInput
	if kind == "tournament" {
		in.init = labeledMultiset(vs)
		in.want, in.steps = tournamentOracle(vs, log2(n))
	} else {
		in.init = bareMultiset(vs)
		in.want, in.steps = minOracle(vs)
	}
	return in
}

func newGammaInst(seed int64, sh shape, kind string, opt gamma.Options) (instance, error) {
	n := sh.tournamentN
	if kind == "min" {
		n = sh.minN
	}
	src, prog, err := newGammaProgram(kind, n)
	if err != nil {
		return nil, err
	}
	g := &gammaInst{kind: kind, n: n, src: src, prog: prog, opt: opt, rng: rand.New(rand.NewSource(seed))}
	if kind == "tournament" {
		for k := 0; k < poolSize; k++ {
			g.inputs = append(g.inputs, newGammaInput(kind, g.rng, n))
		}
	}
	return g, nil
}

// input returns op i's input: from the pool, or fresh from the run's stream
// (ops of a gamma workload run one at a time, so the stream is not shared).
func (g *gammaInst) input(i int) *gammaInput {
	if len(g.inputs) > 0 {
		return &g.inputs[i%len(g.inputs)]
	}
	in := newGammaInput(g.kind, g.rng, g.n)
	return &in
}

func checkGamma(st *gamma.Stats, got, want string, steps int64) error {
	if got != want {
		return fmt.Errorf("stable state %.80q, oracle %.80q", got, want)
	}
	if st.Steps != steps {
		return fmt.Errorf("%d firings, oracle %d", st.Steps, steps)
	}
	return nil
}

func (g *gammaInst) op(i, _ int) (time.Duration, error) {
	in := g.input(i)
	t0 := time.Now()
	m := in.init.Clone()
	st, err := gamma.Run(g.prog, m, g.opt)
	out := m.String()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	return lat, checkGamma(st, out, in.want, in.steps)
}

func (g *gammaInst) tracedOp(i int, tr *tracer) error {
	in := g.input(i)
	tr.beginOp("op")
	defer tr.end()
	tr.begin("multiset.clone")
	m := in.init.Clone()
	tr.end()
	st, err := tracedGammaRun(tr, g.prog, m, g.opt)
	if err != nil {
		return err
	}
	tr.begin("multiset.format")
	out := m.String()
	tr.end()
	tr.count("multiset.final_len", float64(m.Len()))
	return checkGamma(st, out, in.want, in.steps)
}

// tracedGammaRun is gamma.Run inside a span, with the engine's own counters
// recorded at the same boundary.
func tracedGammaRun(tr *tracer, prog *gamma.Program, m *multiset.Multiset, opt gamma.Options) (*gamma.Stats, error) {
	tr.begin("gamma.run")
	st, err := gamma.Run(prog, m, opt)
	tr.end()
	if st != nil {
		tr.count("gamma.steps", float64(st.Steps))
		tr.count("gamma.probes", float64(st.Probes))
		tr.count("gamma.conflicts", float64(st.Conflicts))
		tr.count("gamma.retries", float64(st.Retries))
		tr.count("gamma.backoff_waits", float64(st.BackoffWaits))
		tr.count("gamma.steals", float64(st.Steals))
		tr.count("gamma.batches", float64(st.Batches))
	}
	return st, err
}

func (g *gammaInst) probes(p *probe) error {
	in := g.input(0)
	if err := p.scheduleReplay(g.prog, in.init, g.opt); err != nil {
		return err
	}
	if err := p.coldExtra(in.init, g.opt, func() (*gamma.Program, error) {
		return gammalang.ParseProgram(g.kind, g.src)
	}); err != nil {
		return err
	}
	return p.scaleExponent(g.kind, g.opt)
}

func (g *gammaInst) close() {}

// ---------------------------------------------------------------- df_wide

type wideInput struct {
	g       *dataflow.Graph
	want    map[string]int64
	firings int64
}

type wideInst struct{ inputs []wideInput }

func newWideInst(seed int64, sh shape) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &wideInst{}
	// Two graphs, not poolSize: a graph's cost does not depend on its
	// constants, and building one is most of this workload's set-up.
	for k := 0; k < 2; k++ {
		xs := randWide(rng, sh.width)
		g, err := wideGraph(xs, sh.depth)
		if err != nil {
			return nil, err
		}
		in := wideInput{g: g}
		in.want, in.firings = wideOracle(xs, sh.depth)
		w.inputs = append(w.inputs, in)
	}
	return w, nil
}

// checkWide compares a run's terminal tokens with the oracle: exactly one
// token, tag 0, on every expected output and nothing anywhere else.
func checkWide(res *dataflow.Result, want map[string]int64, firings int64) error {
	if res.Firings != firings {
		return fmt.Errorf("%d firings, oracle %d", res.Firings, firings)
	}
	tokens := 0
	for label, series := range res.Outputs {
		tokens += len(series)
		if len(series) == 0 {
			continue
		}
		v, ok := want[label]
		if !ok || len(series) != 1 || series[0].Tag != 0 || !value.Equal(series[0].Val, value.Int(v)) {
			return fmt.Errorf("output %s = %v, oracle %d (expected: %v)", label, series, v, ok)
		}
	}
	if tokens != len(want) {
		return fmt.Errorf("%d output tokens, oracle %d", tokens, len(want))
	}
	return nil
}

func (w *wideInst) op(i, _ int) (time.Duration, error) {
	in := &w.inputs[i%len(w.inputs)]
	t0 := time.Now()
	res, err := dataflow.Run(in.g, dataflow.Options{})
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	return lat, checkWide(res, in.want, in.firings)
}

func (w *wideInst) tracedOp(i int, tr *tracer) error {
	in := &w.inputs[i%len(w.inputs)]
	tr.beginOp("op")
	defer tr.end()
	res, err := tracedDataflowRun(tr, in.g, dataflow.Options{})
	if err != nil {
		return err
	}
	return checkWide(res, in.want, in.firings)
}

func tracedDataflowRun(tr *tracer, g *dataflow.Graph, opt dataflow.Options) (*dataflow.Result, error) {
	tr.begin("dataflow.run")
	res, err := dataflow.Run(g, opt)
	tr.end()
	if res != nil {
		tr.count("dataflow.firings", float64(res.Firings))
		tr.count("dataflow.pending", float64(res.Pending))
	}
	return res, err
}

func (w *wideInst) probes(p *probe) error { return p.engines(w.inputs[0].g) }

func (w *wideInst) close() {}

// ---------------------------------------------------------------- equiv_loop

type loopInput struct {
	src  string
	s, t int64
}

type loopInst struct{ inputs []loopInput }

func newLoopInst(seed int64, sh shape) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &loopInst{}
	for k := 0; k < poolSize; k++ {
		s0, t0 := rng.Int63n(1000), rng.Int63n(1000)
		in := loopInput{src: loopSource(sh.iters, s0, t0)}
		// Compiling is part of the op; set-up compiles once only to refuse a
		// malformed source before any op is timed.
		if _, err := compiler.Compile("loop", in.src); err != nil {
			return nil, err
		}
		in.s, in.t = loopOracle(sh.iters, s0, t0)
		l.inputs = append(l.inputs, in)
	}
	return l, nil
}

var loopOutputs = []string{"s", "t"}

// operatorFirings is a run's vertex activations without the const roots:
// Alg. 1 turns a root into an initial element, not a reaction.
func operatorFirings(g *dataflow.Graph, res *dataflow.Result) int64 {
	return res.Firings - int64(len(g.RootNodes()))
}

// checkLoop holds both models to the oracle and to each other: same outputs,
// and as many reaction steps as operator firings (§III-C).
func checkLoop(in *loopInput, g *dataflow.Graph, res *dataflow.Result, st *gamma.Stats, m *multiset.Multiset) error {
	gouts := core.OutputsFromMultiset(m, loopOutputs)
	for i, label := range loopOutputs {
		want := value.Int([]int64{in.s, in.t}[i])
		if dv, ok := res.Output(label); !ok || !value.Equal(dv, want) {
			return fmt.Errorf("dataflow output %s = %v, oracle %v", label, dv, want)
		}
		if series := gouts[label]; len(series) != 1 || !value.Equal(series[0].Val, want) {
			return fmt.Errorf("gamma output %s = %v, oracle %v", label, series, want)
		}
	}
	if of := operatorFirings(g, res); of != st.Steps {
		return fmt.Errorf("%d operator firings but %d reaction steps", of, st.Steps)
	}
	return nil
}

func (l *loopInst) op(i, _ int) (time.Duration, error) {
	in := &l.inputs[i%len(l.inputs)]
	t0 := time.Now()
	g, err := compiler.Compile("loop", in.src)
	if err != nil {
		return time.Since(t0), err
	}
	res, err := dataflow.Run(g, dataflow.Options{})
	if err != nil {
		return time.Since(t0), err
	}
	prog, m, err := core.ToGamma(g)
	if err != nil {
		return time.Since(t0), err
	}
	st, err := gamma.Run(prog, m, gamma.Options{})
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	return lat, checkLoop(in, g, res, st, m)
}

func (l *loopInst) tracedOp(i int, tr *tracer) error {
	in := &l.inputs[i%len(l.inputs)]
	tr.beginOp("op")
	defer tr.end()
	tr.begin("compiler.compile")
	g, err := compiler.Compile("loop", in.src)
	tr.end()
	if err != nil {
		return err
	}
	tr.count("compiler.nodes", float64(len(g.Nodes)))
	res, err := tracedDataflowRun(tr, g, dataflow.Options{})
	if err != nil {
		return err
	}
	tr.begin("core.to_gamma")
	prog, m, err := core.ToGamma(g)
	tr.end()
	if err != nil {
		return err
	}
	tr.count("core.reactions", float64(len(prog.Reactions)))
	st, err := tracedGammaRun(tr, prog, m, gamma.Options{})
	if err != nil {
		return err
	}
	tr.count("multiset.final_len", float64(m.Len()))
	if operatorFirings(g, res) == st.Steps {
		tr.count("equiv.firing_parity", 1)
	}
	return checkLoop(in, g, res, st, m)
}

func (l *loopInst) probes(p *probe) error {
	g, err := compiler.Compile("loop", l.inputs[0].src)
	if err != nil {
		return err
	}
	if err := p.engines(g); err != nil {
		return err
	}
	prog, init, err := core.ToGamma(g)
	if err != nil {
		return err
	}
	if err := p.time("core.to_graph_s", func() error {
		_, err := core.ProgramToGraph("roundtrip", prog, init.Clone())
		return err
	}); err != nil {
		return err
	}
	if err := p.scheduleReplay(prog, init, gamma.Options{}); err != nil {
		return err
	}
	return p.coldExtra(init, gamma.Options{}, func() (*gamma.Program, error) {
		prog, _, err := core.ToGamma(g)
		return prog, err
	})
}

func (l *loopInst) close() {}

// ---------------------------------------------------------------- svc_*

// svcRequest is one generated request with its oracle.
type svcRequest struct {
	req client.RunRequest
	// wantMultiset/wantSteps (gamma) or wantOutputs/wantSteps (dataflow).
	wantMultiset string
	wantOutputs  map[string]int64
	wantSteps    int64
}

type svcInst struct {
	mixed  bool
	sh     shape
	srv    *service.Server
	hsrv   *http.Server
	hc     *http.Client
	c      *client.Client
	served chan error
	// rngs has one stream per load goroutine plus one for the traced pass, so
	// a run's request sequence depends only on the seed.
	rngs []*rand.Rand
	tap  handlerTap

	tournamentSrc string
}

// handlerTap wraps the server's handler and, while armed, notes when the
// handler was entered and left: the one boundary of a request the traced pass
// cannot see from the client side.
type handlerTap struct {
	next  http.Handler
	armed atomic.Bool
	mu    sync.Mutex
	start time.Time
	end   time.Time
}

func (h *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.armed.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.start, h.end = start, end
	h.mu.Unlock()
}

func (h *handlerTap) interval() (start, end time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.start, h.end
}

func newSvcInst(seed int64, sh shape, mixed bool) (instance, error) {
	s := &svcInst{mixed: mixed, sh: sh, served: make(chan error, 1)}
	if mixed {
		s.tournamentSrc = tournamentSource(log2(sh.mixedTournament))
	}
	for w := 0; w <= tracedClient; w++ {
		s.rngs = append(s.rngs, rand.New(rand.NewSource(seed*1000003+int64(w))))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = service.New(service.Config{Pool: servicePool, QueueDepth: 64, Retain: 64})
	s.tap.next = s.srv.Handler()
	s.hsrv = &http.Server{Handler: &s.tap}
	go func() { s.served <- s.hsrv.Serve(ln) }()
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: loadClients, MaxConnsPerHost: loadClients}}
	s.c = client.New("http://" + ln.Addr().String())
	s.c.HTTPClient = s.hc
	// The server is up when it answers.
	if _, err := s.c.Health(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *svcInst) close() {
	s.hc.CloseIdleConnections()
	s.hsrv.Close()
	<-s.served
	s.srv.Close()
}

// next draws the next request from rng.
func (s *svcInst) next(rng *rand.Rand) (svcRequest, error) {
	if !s.mixed {
		x, y, k, j := rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000)
		return svcRequest{
			req:          client.NewGammaRequest(example1Source, example1Init(x, y, k, j), client.RunSpec{}),
			wantMultiset: example1Oracle(x, y, k, j), wantSteps: 3,
		}, nil
	}
	switch pick := rng.Intn(8); {
	case pick < 4:
		// Distinct values: a tournament's literal is the request's bulk and
		// no two elements of it parse to the same entry.
		n := s.sh.mixedTournament
		vs := make([]int64, n)
		for i, v := range rng.Perm(4 * n)[:n] {
			vs[i] = int64(v)
		}
		r := svcRequest{req: client.NewGammaRequest(s.tournamentSrc, labeledLiteral(vs), client.RunSpec{})}
		r.wantMultiset, r.wantSteps = tournamentOracle(vs, log2(n))
		return r, nil
	case pick < 6:
		vs := randInts(rng, s.sh.mixedMin)
		r := svcRequest{req: client.NewGammaRequest(minSource, bareLiteral(vs), client.RunSpec{})}
		r.wantMultiset, r.wantSteps = minOracle(vs)
		return r, nil
	default:
		xs := randWide(rng, s.sh.mixedWidth)
		g, err := wideGraph(xs, s.sh.mixedDepth)
		if err != nil {
			return svcRequest{}, err
		}
		spec := client.RunSpec{}
		if pick == 7 {
			spec.Engine = schema.EngineMatrix
		}
		r := svcRequest{req: client.NewGraphRequest(dfir.Marshal(g), spec)}
		r.wantOutputs, r.wantSteps = wideOracle(xs, s.sh.mixedDepth)
		return r, nil
	}
}

// check holds a response to the request's oracle.
func (r *svcRequest) check(resp *client.RunResponse) error {
	if resp == nil || resp.State != schema.StateDone || resp.Result == nil {
		return fmt.Errorf("response not done: %+v", resp)
	}
	if resp.Result.Steps != r.wantSteps {
		return fmt.Errorf("%d steps, oracle %d", resp.Result.Steps, r.wantSteps)
	}
	if r.wantOutputs == nil {
		if resp.Result.Multiset != r.wantMultiset {
			return fmt.Errorf("multiset %.80q, oracle %.80q", resp.Result.Multiset, r.wantMultiset)
		}
		return nil
	}
	tokens := 0
	for label, series := range resp.Result.Outputs {
		tokens += len(series)
		if len(series) == 0 {
			continue
		}
		v, ok := r.wantOutputs[label]
		if !ok || len(series) != 1 || series[0] != fmt.Sprintf("%d@0", v) {
			return fmt.Errorf("output %s = %v, oracle %d@0 (expected: %v)", label, series, v, ok)
		}
	}
	if tokens != len(r.wantOutputs) {
		return fmt.Errorf("%d output tokens, oracle %d", tokens, len(r.wantOutputs))
	}
	return nil
}

func (s *svcInst) op(_, w int) (time.Duration, error) {
	r, err := s.next(s.rngs[w])
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := s.c.Run(context.Background(), r.req)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	return lat, r.check(resp)
}

// tracedOp sends one real request with the handler tap armed, then walks the
// same request by hand, in process, through every layer the server and the
// client pass it through. The real request is the op; the by-hand walk is a
// second root span that splits the op's self times into layers.
func (s *svcInst) tracedOp(_ int, tr *tracer) error {
	r, err := s.next(s.rngs[tracedClient])
	if err != nil {
		return err
	}
	resp, err := s.tracedRequest(tr, &r)
	if err != nil {
		return err
	}
	return s.byHand(tr, &r, resp)
}

func (s *svcInst) tracedRequest(tr *tracer, r *svcRequest) (*client.RunResponse, error) {
	tr.beginOp("op")
	defer tr.end()
	s.tap.armed.Store(true)
	tr.begin("client.roundtrip")
	resp, err := s.c.Run(context.Background(), r.req)
	s.tap.armed.Store(false)
	if err == nil {
		err = r.check(resp)
	}
	if err == nil {
		// The server reports how long the run waited and ran; lay the two
		// back to back at the end of the handler's interval, where the
		// response was still to be written.
		var st *schema.RunStats
		if st, err = s.srv.Stats(resp.ID); err == nil {
			h0, h1 := s.tap.interval()
			tr.beginAt("service.handler", tr.at(h0))
			run := time.Duration(st.WallMS * 1e6)
			tr.leaf("service.queue_wait", time.Duration(st.QueueWaitMS*1e6), tr.at(h1)-int64(run))
			tr.leaf("service.run", run, tr.at(h1))
			tr.endAt(tr.at(h1))
		}
	}
	tr.end()
	return resp, err
}

func (s *svcInst) byHand(tr *tracer, r *svcRequest, resp *client.RunResponse) error {
	tr.begin("byhand")
	defer tr.end()

	tr.begin("schema.encode")
	body, err := r.req.Encode()
	tr.end()
	if err != nil {
		return err
	}
	tr.count("schema.body_bytes", float64(len(body)))

	tr.begin("schema.decode")
	req, err := schema.DecodeRunRequest(body)
	if err == nil {
		err = req.Validate()
	}
	tr.end()
	if err != nil {
		return err
	}

	// The server's path for this request, in process: Submit parses and
	// admits, an executor runs it, Done closes.
	tr.begin("service.inproc")
	tr.begin("service.submit")
	run, err := s.srv.Submit(req, "")
	tr.end()
	if err == nil {
		<-run.Done()
		err = run.Err()
	}
	tr.end()
	if err != nil {
		return err
	}
	st, err := s.srv.Stats(run.ID)
	if err != nil {
		return err
	}
	if st.Steps != r.wantSteps {
		return fmt.Errorf("in-process run: %d steps, oracle %d", st.Steps, r.wantSteps)
	}
	tr.count("service.inproc_queue_wait_s", st.QueueWaitMS/1e3)
	tr.count("service.inproc_run_s", st.WallMS/1e3)

	// What Submit and the executor did inside, one layer at a time.
	switch req.Kind {
	case schema.KindGamma:
		tr.count("gammalang.src_bytes", float64(len(req.Program)))
		tr.begin("gammalang.parse")
		f, err := gammalang.ParseFile(req.Program)
		var plan *gamma.Plan
		if err == nil {
			plan, err = f.Plan("run")
		}
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("multiset.parse")
		m, err := multiset.Parse(req.Init)
		tr.end()
		if err != nil {
			return err
		}
		// A freshly parsed plan compiles its kernels on first use, as every
		// service request does.
		tr.begin("gamma.run")
		gst, err := plan.Run(m, gamma.Options{})
		tr.end()
		if err != nil {
			return err
		}
		tr.count("gamma.steps", float64(gst.Steps))
		tr.count("gamma.probes", float64(gst.Probes))
		tr.begin("multiset.format")
		out := m.String()
		tr.end()
		tr.count("multiset.final_len", float64(m.Len()))
		if err := checkGamma(gst, out, r.wantMultiset, r.wantSteps); err != nil {
			return err
		}
	case schema.KindDataflow:
		tr.count("dfir.src_bytes", float64(len(req.Graph)))
		tr.begin("dfir.unmarshal")
		g, err := dfir.Unmarshal(req.Graph)
		tr.end()
		if err != nil {
			return err
		}
		opt := dataflow.Options{}
		if req.Spec.Engine == schema.EngineMatrix {
			opt.Engine = dataflow.EngineMatrix
		}
		res, err := tracedDataflowRun(tr, g, opt)
		if err != nil {
			return err
		}
		if err := checkWide(res, r.wantOutputs, r.wantSteps); err != nil {
			return err
		}
		tr.begin("dfir.marshal")
		text := dfir.Marshal(g)
		tr.end()
		if text != req.Graph {
			return errors.New("dfir round trip changed the graph text")
		}
	}

	// The response as the server writes it.
	raw, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return err
	}
	tr.begin("schema.decode_resp")
	back, err := schema.DecodeRunResponse(raw)
	tr.end()
	if err != nil {
		return err
	}
	return r.check(back)
}

func (s *svcInst) probes(p *probe) error {
	p.set("service.rejected", float64(s.srv.Registry().CounterValue("service.rejected.queue")+
		s.srv.Registry().CounterValue("service.rejected.concurrency")+
		s.srv.Registry().CounterValue("service.rejected.budget")))
	// Cold start of the program every request of this workload carries (the
	// tournament for the mix, being half of it).
	src, init := example1Source, example1Init(1, 5, 3, 2)
	if s.mixed {
		rng := rand.New(rand.NewSource(1))
		src, init = s.tournamentSrc, labeledLiteral(randInts(rng, s.sh.mixedTournament))
	}
	m, err := multiset.Parse(init)
	if err != nil {
		return err
	}
	return p.coldExtra(m, gamma.Options{}, func() (*gamma.Program, error) {
		return gammalang.ParseProgram("cold", src)
	})
}
