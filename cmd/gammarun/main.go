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
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/gamma"
	"repro/internal/replay"
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
	if err := tel.Start(replay.KindGamma); err != nil {
		profStop()
		cli.Exit("gammarun", err)
	}
	ctx, stop := cli.Context(*timeout)
	runSpec := schema.RunSpec{Workers: *workers, Seed: *seed, MaxSteps: *maxSteps}
	if *replayFile != "" {
		err = replayRun(os.Stdout, flag.Arg(0), *replayFile, *initSet)
	} else {
		err = run(ctx, os.Stdout, flag.Arg(0), runSpec, *fullScan, &tel, *initSet, *stats, *typecheck, *prof)
	}
	stop()
	if terr := tel.Finish(); err == nil {
		err = terr
	}
	profStop()
	cli.Exit("gammarun", err)
}

// load reads the Gamma file at path into the job both modes run against:
// the plan, over the initial multiset -init gives or else the file declares.
func load(path, initSet string) (*schema.Job, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	job, err := schema.LoadGamma(path, string(src), initSet)
	if err == nil && job.Init == nil {
		err = fmt.Errorf("no initial multiset: declare init {...} in the file or pass -init")
	}
	return job, err
}

// replayRun re-executes a recorded schedule against the program and initial
// multiset of path, step for step.
func replayRun(w io.Writer, path, schedPath, initSet string) error {
	job, err := load(path, initSet)
	if err != nil {
		return err
	}
	sf, err := os.Open(schedPath)
	if err != nil {
		return err
	}
	defer sf.Close()
	rep, err := job.Replay(sf)
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		fmt.Fprintln(os.Stderr, rep.Divergence)
		return err
	}
	fmt.Fprintln(w, rep.Gamma.Final)
	fmt.Fprintf(w, "replayed steps=%d stable=%v\n", rep.Gamma.Steps, rep.Gamma.Stable)
	return nil
}

func run(ctx context.Context, w io.Writer, path string, spec schema.RunSpec, fullScan bool, tel *cli.TelemetryFlags, initSet string, stats, typecheck, prof bool) error {
	// The flags are checked by the wire spec's rules, so the CLI rejects
	// exactly what gammad and dfrun reject, with the same message and code.
	if err := spec.Validate(); err != nil {
		return err
	}
	job, err := load(path, initSet)
	if err != nil {
		return err
	}
	m := job.Init
	if typecheck {
		all, err := gamma.NewProgram(path, job.Reactions...)
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
		fmt.Fprint(w, sch)
		hint, why := gamma.AnalyzeTermination(all)
		fmt.Fprintf(w, "termination: %s (%s)\n", hint, why)
		if dead := gamma.DeadReactions(all, m); len(dead) > 0 {
			fmt.Fprintf(w, "warning: reactions that can never fire: %v\n", dead)
		}
	}
	// One firing record serves the trace file, the metrics and the profile:
	// all are read off the commit-ordered schedule after the run.
	sched := tel.Schedule()
	if sched == nil && prof {
		sched = replay.NewRecorder(replay.KindGamma, path)
	}
	gopt, dopt := spec.Lower(sched, nil)
	gopt.FullScan = fullScan
	out, err := job.Run(ctx, gopt, dopt)
	defer tel.PrintMetrics(w, out)
	st := out.Stats
	if err != nil {
		// Early exit: report the partial work so an interrupted run is still
		// diagnosable.
		fmt.Fprintf(os.Stderr, "partial: steps=%d probes=%d parts=%v\n", st.Steps, st.Probes, st.PartSteps)
		return err
	}
	fmt.Fprintln(w, m)
	fmt.Fprintf(w, "steps=%d probes=%d parts=%v workers=%d\n", st.Steps, st.Probes, st.PartSteps, st.Workers)
	if prof {
		fmt.Fprintln(w, "profile:", sched.Schedule().Profile())
	}
	if stats {
		names := make([]string, 0, len(st.Fired))
		for name := range st.Fired {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %s fired %d\n", name, st.Fired[name])
		}
		// Matcher work: elements enumerated inside the probes. Per step it is
		// the matcher's locality — flat in n when a firing costs only the
		// molecules it consumes.
		perStep := 0.0
		if st.Steps > 0 {
			perStep = float64(st.Candidates) / float64(st.Steps)
		}
		fmt.Fprintf(w, "  candidates %d (%.1f per step)\n", st.Candidates, perStep)
		fmt.Fprintf(w, "  storage arena %d B\n", st.ArenaBytes)
	}
	return nil
}
