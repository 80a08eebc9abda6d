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
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/replay"
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
	if err := tel.Start(replay.KindDataflow); err != nil {
		cli.Exit("dfrun", err)
	}
	ctx, stop := cli.Context(*timeout)
	var err error
	if *replayFile != "" {
		err = replayRun(os.Stdout, flag.Arg(0), *replayFile, *compile)
	} else {
		err = run(ctx, os.Stdout, flag.Arg(0), &tel, *engine, *maxFirings, *dot, *compile, *prof)
	}
	stop()
	if terr := tel.Finish(); err == nil {
		err = terr
	}
	cli.Exit("dfrun", err)
}

// load reads the input into the job both modes run against: a .dfir graph
// by default, von Neumann source compiled to one with -compile.
func load(path string, compile bool) (*schema.Job, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return schema.LoadGraph(path, string(src), compile)
}

// printOutputs prints terminal-edge tokens one per line, edges by label.
func printOutputs(w io.Writer, outputs map[string][]dataflow.TaggedValue) {
	labels := make([]string, 0, len(outputs))
	for l := range outputs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		for _, tv := range outputs[l] {
			fmt.Fprintf(w, "%s = %s (tag %d)\n", l, tv.Val, tv.Tag)
		}
	}
}

// replayRun re-executes a recorded schedule against the graph, step for
// step, printing the replayed outputs on success and the divergence report
// on the first step the graph no longer reproduces.
func replayRun(w io.Writer, path, schedPath string, compile bool) error {
	job, err := load(path, compile)
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
	res := rep.Dataflow
	printOutputs(w, res.Outputs)
	fmt.Fprintf(w, "replayed steps=%d pending=%d stable=%v\n", res.Steps, res.Pending, res.Stable)
	return nil
}

func run(ctx context.Context, w io.Writer, path string, tel *cli.TelemetryFlags, engine string, maxFirings int64, dot string, compile, prof bool) error {
	// Validate the flags through the wire spec so the CLI accepts exactly what
	// gammad does; every accepted engine runs the one FIFO schedule.
	spec := schema.RunSpec{Engine: engine, MaxSteps: maxFirings}
	if err := spec.Validate(); err != nil {
		return err
	}
	job, err := load(path, compile)
	if err != nil {
		return err
	}
	g := job.Graph
	if dot != "" {
		if err := os.WriteFile(dot, []byte(dfir.ToDOT(g)), 0o644); err != nil {
			return err
		}
	}
	sched := tel.Schedule()
	if sched == nil && prof {
		sched = replay.NewRecorder(replay.KindDataflow, path)
	}
	gopt, dopt := spec.Lower(sched, nil)
	out, err := job.Run(ctx, gopt, dopt)
	defer tel.PrintMetrics(w, out)
	res := out.Dataflow
	if err != nil {
		if res != nil {
			// Early exit: report the partial work so an interrupted run is
			// still diagnosable.
			fmt.Fprintf(os.Stderr, "partial: firings=%d pending=%d\n", res.Firings, res.Pending)
		}
		return err
	}
	printOutputs(w, res.Outputs)
	fmt.Fprintf(w, "firings=%d pending=%d [%s]\n", res.Firings, res.Pending, dfir.Stats(g))
	if prof {
		fmt.Fprintln(w, "profile:", sched.Schedule().Profile())
	}
	return nil
}
