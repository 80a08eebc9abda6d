package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/paper"
	"repro/internal/schema"
	"repro/internal/service"
)

// runAsMain makes the test binary act as gammad itself when TestGammadBinary
// re-executes it with this variable set.
const runAsMain = "GAMMAD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGammadBinary is the deployment gate on the binary: it boots gammad on
// a loopback port, reads the address off its "serving on" line, checks
// /v1/healthz, runs the paper's Example 1 to its stable state with
// ?wait=true, and expects a clean exit 0 on SIGTERM.
func TestGammadBinary(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-log", "off")
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // a no-op once the child exited

	lines := bufio.NewScanner(stderr)
	var url string
	for url == "" && lines.Scan() {
		if _, rest, ok := strings.Cut(lines.Text(), "serving on "); ok {
			url, _, _ = strings.Cut(rest, " ")
		}
	}
	if url == "" {
		t.Fatalf("gammad printed no serving line (%v)", lines.Err())
	}
	go func() { // keep the pipe drained until the child exits
		for lines.Scan() {
		}
	}()

	c := client.New(url)
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
	resp, err := c.Run(ctx, client.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		client.RunSpec{MaxSteps: 10000}))
	if err != nil || resp.State != schema.StateDone || resp.Result.Multiset != "{[0, 'm']}" || resp.Result.Steps != 3 {
		t.Fatalf("Example 1: %+v, %v; want {[0, 'm']} in 3 steps", resp, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gammad after SIGTERM: %v, want exit 0", err)
	}
}

// TestTenantFlag: -tenant takes three counts per key, and a negative one is
// refused rather than read as "unbounded".
func TestTenantFlag(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want *service.Quota // nil: refused
	}{
		{"k=1,100,500", &service.Quota{MaxConcurrent: 1, MaxSteps: 100, StepBudget: 500}},
		{"k=0,0,0", &service.Quota{}},
		{"k=1,100,-5", nil},
		{"k=-1,0,0", nil},
		{"k=0,-1,0", nil},
		{"k=1,2", nil},
		{"k=1,2,3,4", nil},
		{"=1,2,3", nil},
		{"k", nil},
		{"k=a,2,3", nil},
		{"k=1,2,9223372036854775808", nil},
	} {
		tf := tenantFlags{}
		err := tf.Set(c.arg)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("-tenant %s accepted as %+v", c.arg, tf["k"])
		case c.want != nil && (err != nil || tf["k"] != *c.want):
			t.Errorf("-tenant %s: %+v, %v; want %+v", c.arg, tf["k"], err, *c.want)
		}
	}
	if err := checkQuota(service.Quota{MaxConcurrent: -1}); err == nil {
		t.Error("-concurrent -1 accepted")
	}
	if err := checkQuota(service.Quota{StepBudget: -1}); err == nil {
		t.Error("-step-budget -1 accepted")
	}
}

// TestSizeFlags: -pool, -queue, -retain, -max-body and -max-steps-cap are
// counts, 0 the default, and a negative one is refused rather than read as
// the default.
func TestSizeFlags(t *testing.T) {
	for _, c := range []struct {
		pool, queue, retain int
		maxBody, stepsCap   int64
		ok                  bool
	}{
		{4, 64, 1024, 1 << 20, 10_000_000, true},
		{0, 0, 0, 0, 0, true},
		{1, 1, 1, 1, 1, true},
		{-1, 64, 1024, 1 << 20, 10_000_000, false},
		{4, -1, 1024, 1 << 20, 10_000_000, false},
		{4, 64, -1, 1 << 20, 10_000_000, false},
		{4, 64, 1024, -1, 10_000_000, false},
		{4, 64, 1024, 1 << 20, -1, false},
		{-3, -1, -1, -1, -1, false},
	} {
		if err := checkSizes(c.pool, c.queue, c.retain, c.maxBody, c.stepsCap); (err == nil) != c.ok {
			t.Errorf("checkSizes%v = %v, want ok %v", []int64{int64(c.pool), int64(c.queue), int64(c.retain), c.maxBody, c.stepsCap}, err, c.ok)
		}
	}
}
