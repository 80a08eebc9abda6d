// Command gfbench regenerates the paper's experiments (DESIGN.md §3,
// E1–E13): it executes every figure, listing and claim and prints
// paper-vs-measured tables. EXPERIMENTS.md is written from this output.
//
// Usage:
//
//	gfbench [-exp e1|e3|e4|e5|e7|e8|e9|e11|e12|e13|e14|e15|e16|e17|e19|e20|e21|e22|e23|e24|all] [-bench-json BENCH_gamma.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/multiset"
	"repro/internal/rt"
)

var experiments = []struct {
	id   string
	desc string
	run  func() error
}{
	{"e1", "Fig. 1 / Example 1: expression in both models", expE1},
	{"e3", "Fig. 2 / Example 2: dynamic loop in both models", expE3},
	{"e4", "Eq. 2: min element", expE4},
	{"e5", "§III-A3 reductions (Rd1): granularity trade-off", expE5},
	{"e7", "Fig. 3 grammar: all paper listings parse", expE7},
	{"e8", "Fig. 4: multiset-to-instances mapping", expE8},
	{"e9", "Algorithm 1 equivalence on random graphs", expE9},
	{"e11", "§III-C correspondence: firings = reaction steps", expE11},
	{"e12", "parallel execution scaling (both runtimes)", expE12},
	{"e13", "trace reuse (DF-DTM) across both models", expE13},
	{"e14", "future work: Gamma over a distributed multiset (IoT)", expE14},
	{"e15", "work/span/parallelism profiles across both models", expE15},
	{"e16", "incremental matching engine: delta scheduling vs full rescan", expE16},
	{"e17", "cancellation & fault-injection matrix (DESIGN.md §9)", expE17},
	{"e19", "telemetry: recorder overhead & traced Fig. 1 fidelity (DESIGN.md §11)", expE19},
	{"e20", "work-stealing parallel runtime: workers × n scalability (DESIGN.md §12)", expE20},
	{"e21", "gammad service under closed-loop load: rps, p50/p99, leakage check (DESIGN.md §13)", expE21},
	{"e22", "bulk-synchronous matrix dataflow engine vs PE pool on wide graphs (DESIGN.md §14)", expE22},
	{"e23", "service trace overhead: traced vs untraced closed-loop load + wire fidelity (DESIGN.md §15)", expE23},
	{"e24", "executable schedules: recording overhead + parallel-record/sequential-replay determinism (DESIGN.md §16)", expE24},
}

// benchTel carries the -trace/-metrics flags; e19's traced Fig. 1 run exports
// through it when set.
var benchTel = &cli.TelemetryFlags{}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1, e3, ...) or all")
	figures := flag.String("figures", "", "write the paper's figures (DOT + dfir + gamma) into this directory and exit")
	benchJSON := flag.String("bench-json", "", "write the e16 engine measurements to this file (e.g. BENCH_gamma.json)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long, e.g. 10m (0 = no deadline)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	flag.BoolVar(&benchShort, "short", false, "e16/e20/e22/e23/e24: restrict to the smallest workloads (CI smoke)")
	flag.BoolVar(&benchGuard, "guard", false, "e16: fail unless incremental wall < fullscan at n=10^4; e20: fail on parallel overhead collapse or matcher candidate pathology; e22: fail on matrix engine overhead collapse; e23: fail on trace-overhead ceilings (sampled-off >2%, sampled-on >10% of untraced p99); e24: fail if schedule recording costs >25%")
	baseline := flag.String("baseline", "", "compare this run's e16/e20 measurements against a prior BENCH_gamma.json and fail outside tolerance")
	benchTel.Register(flag.CommandLine)
	flag.Parse()
	spec := cli.ProfileSpec{CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile}
	profStop, err := spec.Start()
	if err != nil {
		cli.Exit("gfbench", err)
	}
	defer profStop()
	if err := benchTel.Start(multiset.PrettyKey); err != nil {
		profStop()
		cli.Exit("gfbench", err)
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()
	if *figures != "" {
		if err := writeFigures(*figures); err != nil {
			stop()
			profStop()
			cli.Exit("gfbench", err)
		}
		return
	}
	// -exp accepts a comma-separated list so one invocation can combine
	// measurements (e.g. -exp e16,e20 -bench-json records both engines' rows).
	wanted := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	ran := false
	for _, e := range experiments {
		if !wanted["all"] && !wanted[e.id] {
			continue
		}
		// Experiments are checkpointed between runs: an interrupt or an
		// expired -timeout stops before the next one starts.
		if cerr := ctx.Err(); cerr != nil {
			stop()
			profStop()
			cli.Exit("gfbench", rt.FromContext(cerr))
		}
		ran = true
		fmt.Printf("### %s — %s\n\n", e.id, e.desc)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "gfbench: %s: %v\n", e.id, err)
			stop()
			profStop()
			os.Exit(cli.ExitCode(err))
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "gfbench: unknown experiment %q\n", *exp)
		os.Exit(cli.ExitUsage)
	}
	// The baseline check compares the fresh measurements against the old
	// snapshot, so it must run before -bench-json overwrites it.
	if *baseline != "" {
		if err := checkBaseline(*baseline); err != nil {
			stop()
			profStop()
			cli.Exit("gfbench", err)
		}
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON); err != nil {
			stop()
			profStop()
			cli.Exit("gfbench", err)
		}
	}
	if err := benchTel.Finish(); err != nil {
		stop()
		profStop()
		cli.Exit("gfbench", err)
	}
}
