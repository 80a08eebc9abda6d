// Command dfrun executes a dynamic dataflow graph and prints its outputs.
//
// Usage:
//
//	dfrun [-engine E] [-maxfirings N] [-timeout D] [-dot out.dot] [-compile] file
//
// The input is a .dfir graph description by default; with -compile it is a
// source file in the paper's von Neumann mini language, translated first.
//
// The run is bounded by -timeout and canceled by SIGINT/SIGTERM; exit codes
// follow the shared taxonomy of package internal/cli (3 parse/invalid,
// 4 firing budget, 5 canceled/deadline, 6 vertex panic, ...).
//
// Record and replay: -trace sched.jsonl -trace-format schedule records the
// run's committed firing order as an executable schedule; -replay
// sched.jsonl re-executes that schedule step for step against the graph and
// prints a divergence report (exit 3) when the graph no longer reproduces
// the recording.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/schema"
)

func main() {
	engine := flag.String("engine", "", "execution engine: seq (the default; matrix and parallel are accepted and run seq)")
	maxFirings := flag.Int64("maxfirings", 1_000_000, "abort after this many vertex activations (0 = unlimited)")
	dot := flag.String("dot", "", "also write the graph as Graphviz DOT to this file")
	compile := flag.Bool("compile", false, "treat the input as von Neumann source, not .dfir")
	prof := flag.Bool("profile", false, "print work/span/parallelism of the execution")
	timeout := flag.Duration("timeout", 0, "abort the run after this long, e.g. 30s (0 = no deadline)")
	replayFile := flag.String("replay", "", "replay a recorded schedule (from -trace-format schedule) instead of running")
	var tel cli.TelemetryFlags
	tel.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dfrun [flags] file")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}
	tel.ScheduleKind = replay.KindDataflow
	if err := tel.Start(); err != nil {
		cli.Exit("dfrun", err)
	}
	ctx, stop := cli.Context(*timeout)
	var err error
	if *replayFile != "" {
		err = replayRun(flag.Arg(0), *replayFile, *compile)
	} else {
		err = run(ctx, flag.Arg(0), &tel, *engine, *maxFirings, *dot, *compile, *prof)
	}
	stop()
	if terr := tel.Finish(); err == nil {
		err = terr
	}
	cli.Exit("dfrun", err)
}

// loadGraph reads and parses the input the way run does: .dfir by default,
// von Neumann source with -compile.
func loadGraph(path string, compile bool) (*dataflow.Graph, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if compile {
		return compiler.Compile(path, string(src))
	}
	g, err := dfir.Unmarshal(string(src))
	if err != nil {
		return nil, rt.Mark(rt.ErrParse, err)
	}
	return g, nil
}

// replayRun re-executes a recorded schedule against the graph, step for
// step, printing the replayed outputs on success and the divergence report
// on the first step the graph no longer reproduces.
func replayRun(path, schedPath string, compile bool) error {
	g, err := loadGraph(path, compile)
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
	res, err := replay.ReplayDataflow(g, sched)
	if err != nil {
		return err
	}
	if res.Divergence != nil {
		fmt.Fprintln(os.Stderr, res.Divergence)
		return rt.Mark(rt.ErrInvalid, fmt.Errorf("replay diverged at step %d (%s)", res.Divergence.Step, res.Divergence.Reason))
	}
	labels := make([]string, 0, len(res.Outputs))
	for l := range res.Outputs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		for _, tv := range res.Outputs[l] {
			fmt.Printf("%s = %s (tag %d)\n", l, tv.Val, tv.Tag)
		}
	}
	fmt.Printf("replayed steps=%d pending=%d stable=%v\n", res.Steps, res.Pending, res.Stable)
	return nil
}

func run(ctx context.Context, path string, tel *cli.TelemetryFlags, engine string, maxFirings int64, dot string, compile, prof bool) error {
	// Validate the engine through the wire spec so the CLI accepts exactly the
	// enum gammad does; every accepted value runs the one FIFO schedule.
	spec := schema.RunSpec{Engine: engine}
	if err := spec.Validate(); err != nil {
		return err
	}
	g, err := loadGraph(path, compile)
	if err != nil {
		return err
	}
	if dot != "" {
		if err := os.WriteFile(dot, []byte(dfir.ToDOT(g)), 0o644); err != nil {
			return err
		}
	}
	opt := dataflow.Options{MaxFirings: maxFirings}
	sched := tel.Schedule()
	if sched == nil && prof {
		sched = replay.NewRecorder(replay.KindDataflow, path)
	}
	if sched != nil {
		opt.Schedule = sched
	}
	res, err := dataflow.RunContext(ctx, g, opt)
	tel.DataflowRun(g, res)
	if err != nil {
		if res != nil {
			// Early exit: report the partial work so an interrupted run is
			// still diagnosable.
			fmt.Fprintf(os.Stderr, "partial: firings=%d pending=%d\n", res.Firings, res.Pending)
		}
		return err
	}
	labels := make([]string, 0, len(res.Outputs))
	for l := range res.Outputs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		for _, tv := range res.Outputs[l] {
			fmt.Printf("%s = %s (tag %d)\n", l, tv.Val, tv.Tag)
		}
	}
	fmt.Printf("firings=%d pending=%d [%s]\n", res.Firings, res.Pending, dfir.Stats(g))
	if prof {
		fmt.Println("profile:", sched.Schedule().Profile())
	}
	return nil
}
