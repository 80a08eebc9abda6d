// Command gammad serves Gamma over HTTP: a multi-tenant run service
// multiplexing concurrent Gamma programs and dataflow graphs (the v1 wire
// format of internal/schema) over a shared bounded executor pool.
//
// Usage:
//
//	gammad [-addr :8080] [-pool N] [-queue N] [-max-steps-cap N]
//	       [-concurrent N] [-step-budget N] [-tenant key=conc,steps,budget]...
//	       [-trace-sample P] [-log json|text|off]
//	       [-metrics-addr host:port] [-pprof] [-selfcheck [-remote-trace FILE]]
//
// API (see package internal/service):
//
//	POST   /v1/runs              submit (202; ?wait=true blocks for the result)
//	GET    /v1/runs/{id}         poll
//	DELETE /v1/runs/{id}         cancel
//	GET    /v1/runs/{id}/trace   traced terminal run's trace
//	                             (?format=perfetto|jsonl|dot|schedule)
//	POST   /v1/replay            re-execute a recorded schedule; the response
//	                             is the confirmed stable state or a divergence
//	GET    /v1/runs/{id}/stats   terminal run's execution accounting
//	GET    /v1/healthz           load snapshot
//	GET    /metrics              registry snapshot (?format=prom for Prometheus)
//
// -pprof additionally mounts the net/http/pprof introspection handlers under
// /debug/pprof/ on the -metrics-addr endpoint (never on the public API
// port): goroutine dumps, CPU and heap profiles of the live server. It
// requires -metrics-addr.
//
// Admission control rejects with 429 + Retry-After when the pending queue is
// full or the tenant (API key) is over its concurrency or step-budget quota.
//
// Submissions with "trace": true in their spec are recorded (the run's
// firing schedule, sampled at -trace-sample) and retained with the terminal
// run; its Perfetto/JSONL timeline, provenance DAG and run metrics are folds
// over that schedule. The server logs one structured record (-log json|text)
// per admission, rejection and completion, keyed by run id, tenant and
// engine. Metrics carry per-tenant and per-engine label series alongside the
// globals, scrape-able at /metrics?format=prom.
//
// -selfcheck starts the server on a loopback port, drives a smoke test
// through the client package (lifecycle, taxonomy mapping, backpressure,
// trace fetch, Prometheus exposition) and exits; it is the deployment health
// gate used by make check-ci. -remote-trace FILE additionally writes the
// fetched Perfetto trace there for inspection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/client"
	"repro/internal/cli"
	"repro/internal/paper"
	"repro/internal/rt"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// tenantFlags collects repeatable -tenant key=concurrent,maxsteps,budget
// overrides (0 fields inherit the defaults).
type tenantFlags map[string]service.Quota

func (t tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(t)) }

func (t tenantFlags) Set(v string) error {
	key, spec, ok := strings.Cut(v, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=concurrent,maxsteps,budget, got %q", v)
	}
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return fmt.Errorf("want three comma-separated numbers, got %q", spec)
	}
	var q service.Quota
	var err error
	if q.MaxConcurrent, err = strconv.Atoi(parts[0]); err != nil {
		return err
	}
	if q.MaxSteps, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return err
	}
	if q.StepBudget, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
		return err
	}
	t[key] = q
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	pool := flag.Int("pool", 4, "executor goroutines runs are multiplexed over")
	queue := flag.Int("queue", 64, "pending-queue depth (full queue rejects with 429)")
	stepsCap := flag.Int64("max-steps-cap", 10_000_000, "per-run step cap when the spec asks for more (or nothing)")
	retain := flag.Int("retain", 1024, "terminal runs kept for polling before eviction")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	concurrent := flag.Int("concurrent", 0, "default per-tenant concurrent-run quota (0 = unbounded)")
	stepBudget := flag.Int64("step-budget", 0, "default per-tenant cumulative step budget (0 = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "serve live service metrics JSON on this HTTP address")
	pprofFlag := flag.Bool("pprof", false, "also serve /debug/pprof/ on the -metrics-addr endpoint")
	traceSample := flag.Float64("trace-sample", 0, "fraction of trace-requesting runs actually traced (0 = all, <0 = none)")
	logFormat := flag.String("log", "json", "structured log format: json, text or off")
	selfcheck := flag.Bool("selfcheck", false, "start on a loopback port, run the client smoke test and exit")
	remoteTrace := flag.String("remote-trace", "", "with -selfcheck: write the remotely fetched Perfetto trace to this file")
	tenants := tenantFlags{}
	flag.Var(tenants, "tenant", "per-API-key quota override key=concurrent,maxsteps,budget (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: gammad [flags]")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}

	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "off":
		logger = nil // service.Config substitutes a discard logger
	default:
		fmt.Fprintf(os.Stderr, "gammad: unknown -log format %q (want json, text or off)\n", *logFormat)
		os.Exit(cli.ExitUsage)
	}

	cfg := service.Config{
		Pool:        *pool,
		QueueDepth:  *queue,
		Quota:       service.Quota{MaxConcurrent: *concurrent, StepBudget: *stepBudget},
		Tenants:     tenants,
		MaxStepsCap: *stepsCap,
		Retain:      *retain,
		MaxBody:     *maxBody,
		TraceSample: *traceSample,
		Logger:      logger,
	}

	if *selfcheck {
		if err := runSelfcheck(cfg, *remoteTrace); err != nil {
			cli.Exit("gammad", err)
		}
		fmt.Println("gammad selfcheck: PASS")
		return
	}

	if *pprofFlag && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "gammad: -pprof requires -metrics-addr (the handlers mount on the metrics endpoint)")
		os.Exit(cli.ExitUsage)
	}

	s := service.New(cfg)
	defer s.Close()

	if *metricsAddr != "" {
		mux := telemetry.MetricsMux(s.Registry())
		if *pprofFlag {
			telemetry.MountPprof(mux)
		}
		bound, closeSrv, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			cli.Exit("gammad", err)
		}
		defer closeSrv()
		fmt.Fprintf(os.Stderr, "gammad: metrics on http://%s/metrics\n", bound)
		if *pprofFlag {
			fmt.Fprintf(os.Stderr, "gammad: pprof on http://%s/debug/pprof/\n", bound)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Exit("gammad", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(os.Stderr, "gammad: serving on http://%s (pool %d, queue %d)\n",
		ln.Addr(), cfg.Pool, cfg.QueueDepth)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Shutdown(context.Background()) //nolint:errcheck // exiting anyway
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Exit("gammad", err)
	}
}

// runSelfcheck boots the service on a loopback port and exercises the whole
// serving stack through the public client: submit/wait lifecycle with the
// paper's Example 1, the error-taxonomy mapping on a truncated divergent
// run, per-tenant backpressure, cancel, the health endpoint, a traced run's
// trace/stats surfaces (all four formats), the record→replay loop with a
// divergence probe, and the Prometheus exposition. remoteTrace, when
// non-empty, receives the fetched Perfetto trace, streamed via TraceTo.
func runSelfcheck(cfg service.Config, remoteTrace string) error {
	// Selfcheck wants deterministic backpressure: one tenant slot.
	cfg.Tenants = map[string]service.Quota{"selfcheck-quota": {MaxConcurrent: 1}}
	s := service.New(cfg)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // torn down with the listener
	defer srv.Close()

	ctx := context.Background()
	c := client.New("http://" + ln.Addr().String())

	// 1. Health.
	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("selfcheck health: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("selfcheck health: status %q", h.Status)
	}

	// 2. Example 1 to its stable state, synchronously.
	resp, err := c.Run(ctx, client.NewGammaRequest(
		paper.Example1GammaListing, paper.Example1InitialMultiset,
		client.RunSpec{MaxSteps: 10000}))
	if err != nil {
		return fmt.Errorf("selfcheck example1: %w", err)
	}
	if resp.State != schema.StateDone || !strings.Contains(resp.Result.Multiset, "'m'") {
		return fmt.Errorf("selfcheck example1: state %s result %+v", resp.State, resp.Result)
	}

	// 3. A divergent counter truncated by its step cap maps to ErrMaxSteps
	// across the wire.
	divergent := client.NewGammaRequest(
		`R = replace [x, 'G'] by [x + 1, 'G']`, `{[0, 'G']}`,
		client.RunSpec{MaxSteps: 100})
	if _, err := c.Run(ctx, divergent); !errors.Is(err, rt.ErrMaxSteps) {
		return fmt.Errorf("selfcheck taxonomy: err = %v, want ErrMaxSteps", err)
	}

	// 4. Backpressure: with a one-slot quota, a second concurrent run
	// bounces as BusyError; canceling the first frees the slot.
	qc := client.New(c.BaseURL)
	qc.APIKey = "selfcheck-quota"
	unbounded := client.NewGammaRequest(
		`R = replace [x, 'G'] by [x + 1, 'G']`, `{[0, 'G']}`, client.RunSpec{})
	first, err := qc.Submit(ctx, unbounded)
	if err != nil {
		return fmt.Errorf("selfcheck quota submit: %w", err)
	}
	var busy *client.BusyError
	if _, err := qc.Submit(ctx, unbounded); !errors.As(err, &busy) {
		return fmt.Errorf("selfcheck quota: err = %v, want BusyError", err)
	}
	if _, err := qc.Cancel(ctx, first.ID); err != nil {
		return fmt.Errorf("selfcheck cancel: %w", err)
	}
	if _, err := qc.Wait(ctx, first.ID, 0); !errors.Is(err, rt.ErrCanceled) {
		return fmt.Errorf("selfcheck cancel wait: err = %v, want ErrCanceled", err)
	}

	// 5. A traced run: the remote stats must hold firings == steps (the
	// firing-history equivalence over the wire) and every trace format must
	// download non-empty.
	traced, err := c.Run(ctx, client.NewGammaRequest(
		paper.Example1GammaListing, paper.Example1InitialMultiset,
		client.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000, Trace: true}))
	if err != nil {
		return fmt.Errorf("selfcheck traced run: %w", err)
	}
	st, err := c.Stats(ctx, traced.ID)
	if err != nil {
		return fmt.Errorf("selfcheck stats: %w", err)
	}
	if !st.Traced || st.Firings != st.Steps || st.Steps != traced.Result.Steps {
		return fmt.Errorf("selfcheck stats: %+v, want traced with firings == steps == %d",
			st, traced.Result.Steps)
	}
	for _, format := range []string{client.TracePerfetto, client.TraceJSONL, client.TraceDOT, client.TraceSchedule} {
		data, err := c.Trace(ctx, traced.ID, format)
		if err != nil || len(data) == 0 {
			return fmt.Errorf("selfcheck trace %s: %d bytes, %v", format, len(data), err)
		}
	}
	if remoteTrace != "" {
		// TraceTo streams straight into the file — the export never lives
		// wholly in client memory.
		f, err := os.Create(remoteTrace)
		if err != nil {
			return fmt.Errorf("selfcheck -remote-trace: %w", err)
		}
		err = c.TraceTo(ctx, traced.ID, client.TracePerfetto, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("selfcheck -remote-trace: %w", err)
		}
		fi, err := os.Stat(remoteTrace)
		if err != nil || fi.Size() == 0 {
			return fmt.Errorf("selfcheck -remote-trace: empty trace file (%v)", err)
		}
		fmt.Fprintf(os.Stderr, "gammad: remote trace written to %s (%d bytes)\n", remoteTrace, fi.Size())
	}

	// 5b. Record → replay over the wire: the traced run's schedule, replayed
	// against the same program and initial multiset, must confirm the exact
	// recorded answer; a corrupted product must come back as a structured
	// divergence naming the tampered step.
	sched, err := c.Trace(ctx, traced.ID, client.TraceSchedule)
	if err != nil {
		return fmt.Errorf("selfcheck schedule fetch: %w", err)
	}
	rep, err := c.Replay(ctx, client.NewGammaReplayRequest(
		paper.Example1GammaListing, paper.Example1InitialMultiset, string(sched)))
	if err != nil {
		return fmt.Errorf("selfcheck replay: %w", err)
	}
	if rep.Divergence != nil || !rep.Stable || rep.Multiset != traced.Result.Multiset {
		return fmt.Errorf("selfcheck replay: %+v, want stable %q", rep, traced.Result.Multiset)
	}
	corrupt := strings.Replace(string(sched), `"produced":["`, `"produced":["9999`, 1)
	rep, err = c.Replay(ctx, client.NewGammaReplayRequest(
		paper.Example1GammaListing, paper.Example1InitialMultiset, corrupt))
	if err != nil {
		return fmt.Errorf("selfcheck replay divergence: %w", err)
	}
	if rep.Divergence == nil || rep.Divergence.Step == 0 {
		return fmt.Errorf("selfcheck replay divergence: corrupted schedule replayed clean (%+v)", rep)
	}

	// 6. The Prometheus exposition serves with its Content-Type and carries
	// the labeled service series; an unknown format is 406, not JSON.
	promBody, promCT, err := httpGet(c.BaseURL + "/metrics?format=prom")
	if err != nil {
		return fmt.Errorf("selfcheck metrics: %w", err)
	}
	if !strings.HasPrefix(promCT, "text/plain") {
		return fmt.Errorf("selfcheck metrics: Content-Type %q, want text/plain", promCT)
	}
	for _, want := range []string{"# TYPE service_done counter", `service_done{engine="seq"}`} {
		if !strings.Contains(promBody, want) {
			return fmt.Errorf("selfcheck metrics: exposition missing %q", want)
		}
	}
	// Example 1 ran twice (steps 2 and 5): the second run's plan came from
	// the plan cache.
	var hits int64
	for _, line := range strings.Split(promBody, "\n") {
		if v, ok := strings.CutPrefix(line, "service_plan_cache_hits "); ok {
			hits, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if hits < 1 {
		return fmt.Errorf("selfcheck plan cache: service_plan_cache_hits = %d after Example 1 ran twice, want >= 1", hits)
	}
	if resp, err := http.Get(c.BaseURL + "/metrics?format=avro"); err != nil {
		return fmt.Errorf("selfcheck metrics 406: %w", err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotAcceptable {
		return fmt.Errorf("selfcheck metrics 406: status %d", resp.StatusCode)
	}
	return nil
}

// httpGet fetches one URL, returning the body and Content-Type.
func httpGet(url string) (string, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), resp.Header.Get("Content-Type"), nil
}
