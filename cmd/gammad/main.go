// Command gammad serves Gamma over HTTP: a multi-tenant run service
// multiplexing concurrent Gamma programs and dataflow graphs (the v1 wire
// format of internal/schema) over a shared bounded executor pool.
//
// Usage:
//
//	gammad [-addr :8080] [-pool N] [-queue N] [-max-steps-cap N]
//	       [-concurrent N] [-step-budget N] [-tenant key=conc,steps,budget]...
//	       [-trace-sample P] [-log json|text|off]
//	       [-metrics-addr host:port] [-pprof]
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
// Quotas and sizes are counts: a negative -concurrent, -step-budget, -tenant
// field, -pool, -queue, -retain, -max-body or -max-steps-cap is a usage error
// (exit 2), never "unbounded" or the default.
//
// The deployment gate is TestGammadBinary, which boots this binary on a
// loopback port, runs Example 1 and stops it with SIGTERM; the client and
// service test suites cover the API behind it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cli"
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
	if err := checkQuota(q); err != nil {
		return err
	}
	t[key] = q
	return nil
}

// checkQuota refuses a negative count: Quota reads 0 as "unbounded" and the
// service enforces positive bounds only, so a -1 would silently remove the
// bound it seems to set.
func checkQuota(q service.Quota) error {
	if q.MaxConcurrent < 0 || q.MaxSteps < 0 || q.StepBudget < 0 {
		return fmt.Errorf("quota fields are counts (0 = unbounded), got %d,%d,%d", q.MaxConcurrent, q.MaxSteps, q.StepBudget)
	}
	return nil
}

// checkSizes refuses a negative size: service.Config reads one as its
// default, so a -1 would silently serve a bound it seems to change.
func checkSizes(pool, queue, retain int, maxBody, stepsCap int64) error {
	if pool < 0 || queue < 0 || retain < 0 || maxBody < 0 || stepsCap < 0 {
		return fmt.Errorf("sizes are counts (0 = default), got -pool %d -queue %d -retain %d -max-body %d -max-steps-cap %d", pool, queue, retain, maxBody, stepsCap)
	}
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
	tenants := tenantFlags{}
	flag.Var(tenants, "tenant", "per-API-key quota override key=concurrent,maxsteps,budget (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: gammad [flags]")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}

	quota := service.Quota{MaxConcurrent: *concurrent, StepBudget: *stepBudget}
	if err := errors.Join(checkQuota(quota), checkSizes(*pool, *queue, *retain, *maxBody, *stepsCap)); err != nil {
		fmt.Fprintf(os.Stderr, "gammad: %v\n", err)
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
		Quota:       quota,
		Tenants:     tenants,
		MaxStepsCap: *stepsCap,
		Retain:      *retain,
		MaxBody:     *maxBody,
		TraceSample: *traceSample,
		Logger:      logger,
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
	h := s.Health() // what New made of cfg: defaults filled in
	fmt.Fprintf(os.Stderr, "gammad: serving on http://%s (pool %d, queue %d)\n", ln.Addr(), h.Pool, h.QueueDepth)

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
