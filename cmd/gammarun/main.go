// Command gammarun executes a Gamma source file (Fig. 3 grammar) to its
// stable state and prints the resulting multiset and execution statistics.
//
// Usage:
//
//	gammarun [-workers N] [-seed S] [-maxsteps N] [-timeout D] [-stats] file.gamma
//
// The file may declare its initial multiset with an init { ... } statement
// and a composition expression (R1 | R2 ; R3); otherwise all reactions run
// in parallel composition over the multiset given with -init.
//
// The run is bounded by -timeout and canceled by SIGINT/SIGTERM; exit codes
// follow the shared taxonomy of package internal/cli (3 parse/invalid,
// 4 step budget, 5 canceled/deadline, 6 worker panic, ...).
//
// Record and replay: -trace sched.jsonl -trace-format schedule records the
// run's committed firing order as an executable schedule;
// -replay sched.jsonl re-executes that schedule step for step against the
// file's program and initial multiset, verifying each firing reproduces the
// recording, and prints a divergence report (exit 3) when it does not.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/schema"
)

func main() {
	workers := flag.Int("workers", 1, "parallel reaction executors (1 = sequential deterministic)")
	seed := flag.Int64("seed", 0, "seed for nondeterministic matching")
	maxSteps := flag.Int64("maxsteps", 1_000_000, "abort after this many reaction firings (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long, e.g. 30s (0 = no deadline)")
	fullScan := flag.Bool("fullscan", false, "wake every reaction after every firing instead of the subscribed ones (scheduler reference policy)")
	initSet := flag.String("init", "", "initial multiset, e.g. \"{[1,'A1'],[5,'B1']}\" (overrides the file's init)")
	replayFile := flag.String("replay", "", "replay a recorded schedule (from -trace-format schedule) instead of running")
	stats := flag.Bool("stats", false, "print per-reaction firing counts")
	typecheck := flag.Bool("typecheck", false, "infer a Structured-Gamma-style schema, check the program and print it")
	prof := flag.Bool("profile", false, "print work/span/parallelism of the execution")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	var tel cli.TelemetryFlags
	tel.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gammarun [flags] file.gamma")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}
	spec := cli.ProfileSpec{CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile}
	profStop, err := spec.Start()
	if err != nil {
		cli.Exit("gammarun", err)
	}
	tel.ScheduleKind = replay.KindGamma
	if err := tel.Start(); err != nil {
		profStop()
		cli.Exit("gammarun", err)
	}
	ctx, stop := cli.Context(*timeout)
	opt := gamma.Options{Workers: *workers, Seed: *seed, MaxSteps: *maxSteps, FullScan: *fullScan}
	if *replayFile != "" {
		err = replayRun(flag.Arg(0), *replayFile, *initSet)
	} else {
		err = run(ctx, flag.Arg(0), opt, &tel, *initSet, *stats, *typecheck, *prof)
	}
	stop()
	if terr := tel.Finish(); err == nil {
		err = terr
	}
	profStop()
	cli.Exit("gammarun", err)
}

// load parses the Gamma file at path and resolves what both modes run
// against: the initial multiset (-init overrides the file's) and the plan.
func load(path, initSet string) (*gammalang.File, *multiset.Multiset, *gamma.Plan, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	file, err := gammalang.ParseFile(string(src))
	if err != nil {
		return nil, nil, nil, err
	}
	m := file.Init
	if initSet != "" {
		if m, err = multiset.Parse(initSet); err != nil {
			return nil, nil, nil, rt.Mark(rt.ErrParse, err)
		}
	}
	if m == nil {
		return nil, nil, nil, fmt.Errorf("no initial multiset: declare init {...} in the file or pass -init")
	}
	plan, err := file.Plan(path)
	return file, m, plan, err
}

// replayRun re-executes a recorded schedule against the program and initial
// multiset of path, step for step. A staged composition replays against the
// union of its stages' reactions — the schedule's firing order already
// respects the stage boundaries it was recorded under.
func replayRun(path, schedPath, initSet string) error {
	_, m, plan, err := load(path, initSet)
	if err != nil {
		return err
	}
	var reactions []*gamma.Reaction
	for _, stage := range plan.Stages {
		reactions = append(reactions, stage.Reactions...)
	}
	prog, err := gamma.NewProgram(path, reactions...)
	if err != nil {
		return err
	}
	sf, err := os.Open(schedPath)
	if err != nil {
		return err
	}
	sched, err := replay.Parse(sf)
	sf.Close()
	if err != nil {
		return err
	}
	res, err := replay.ReplayGamma(prog, m, sched)
	if err != nil {
		return err
	}
	if res.Divergence != nil {
		fmt.Fprintln(os.Stderr, res.Divergence)
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("replay diverged at step %d (%s)", res.Divergence.Step, res.Divergence.Reason))
	}
	fmt.Println(res.Final)
	fmt.Printf("replayed steps=%d stable=%v\n", res.Steps, res.Stable)
	return nil
}

func run(ctx context.Context, path string, opt gamma.Options, tel *cli.TelemetryFlags, initSet string, stats, typecheck, prof bool) error {
	// The flags are checked by the wire spec's rules, so the CLI rejects
	// exactly what gammad and dfrun reject, with the same message and code.
	if err := (schema.RunSpec{Workers: opt.Workers, MaxSteps: opt.MaxSteps}).Validate(); err != nil {
		return err
	}
	file, m, plan, err := load(path, initSet)
	if err != nil {
		return err
	}
	if typecheck {
		all, err := gamma.NewProgram(path, file.Reactions...)
		if err != nil {
			return err
		}
		sch, err := schema.Infer(all, m)
		if err != nil {
			return fmt.Errorf("typecheck: %w", err)
		}
		if err := sch.Check(all, m); err != nil {
			return fmt.Errorf("typecheck: %w", err)
		}
		fmt.Print(sch)
		hint, why := gamma.AnalyzeTermination(all)
		fmt.Printf("termination: %s (%s)\n", hint, why)
		if dead := gamma.DeadReactions(all, m); len(dead) > 0 {
			fmt.Printf("warning: reactions that can never fire: %v\n", dead)
		}
	}
	// One firing record serves the trace file and the profile: both are read
	// off the commit-ordered schedule after the run.
	sched := tel.Schedule()
	if sched == nil && prof {
		sched = replay.NewRecorder(replay.KindGamma, path)
	}
	if sched != nil {
		opt.Schedule = sched
	}
	m0 := m.Len()
	st, err := plan.RunContext(ctx, m, opt)
	tel.GammaRun(plan, m0, st)
	if err != nil {
		if st != nil {
			// Early exit: report the partial work so an interrupted run is
			// still diagnosable.
			fmt.Fprintf(os.Stderr, "partial: steps=%d probes=%d parts=%v\n", st.Steps, st.Probes, st.PartSteps)
		}
		return err
	}
	fmt.Println(m)
	fmt.Printf("steps=%d probes=%d parts=%v workers=%d\n", st.Steps, st.Probes, st.PartSteps, st.Workers)
	if prof {
		fmt.Println("profile:", sched.Schedule().Profile())
	}
	if stats {
		names := make([]string, 0, len(st.Fired))
		for name := range st.Fired {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %s fired %d\n", name, st.Fired[name])
		}
		// Matcher work: elements enumerated inside the probes. Per step it is
		// the matcher's locality — flat in n when a firing costs only the
		// molecules it consumes.
		perStep := 0.0
		if st.Steps > 0 {
			perStep = float64(st.Candidates) / float64(st.Steps)
		}
		fmt.Printf("  candidates %d (%.1f per step)\n", st.Candidates, perStep)
		fmt.Printf("  storage arena %d B\n", st.ArenaBytes)
	}
	return nil
}
