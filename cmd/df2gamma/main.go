// Command df2gamma applies Algorithm 1: it converts a dynamic dataflow graph
// into an equivalent Gamma program, printed in the paper's listing style with
// its init multiset, ready for gammarun.
//
// Usage:
//
//	df2gamma [-compile] [-reduce] [-check] [-timeout D] file
//
// The input is a .dfir graph description, or von Neumann source with
// -compile. With -reduce, the §III-A3 reduction fuses linear reaction chains
// (the Rd1 transformation). With -check, the equivalence of graph and
// program is verified by executing both before printing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/replay"
	"repro/internal/schema"
)

func main() {
	compile := flag.Bool("compile", false, "treat the input as von Neumann source, not .dfir")
	reduce := flag.Bool("reduce", false, "apply the §III-A3 reduction to the emitted program")
	check := flag.Bool("check", false, "verify equivalence by running both models first")
	timeout := flag.Duration("timeout", 0, "abort after this long, e.g. 30s (0 = no deadline)")
	var tel cli.TelemetryFlags
	tel.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: df2gamma [flags] file")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}
	if err := tel.Start(replay.KindGamma); err != nil {
		cli.Exit("df2gamma", err)
	}
	ctx, stop := cli.Context(*timeout)
	err := run(ctx, flag.Arg(0), &tel, *compile, *reduce, *check)
	stop()
	if terr := tel.Finish(); err == nil {
		err = terr
	}
	cli.Exit("df2gamma", err)
}

func run(ctx context.Context, path string, tel *cli.TelemetryFlags, compile, reduce, check bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	job, err := schema.LoadGraph(path, string(src), compile)
	if err != nil {
		return err
	}
	g := job.Graph
	if check {
		rep, err := equiv.CheckContext(ctx, g, equiv.Options{MaxSteps: 1_000_000})
		if err != nil {
			return err
		}
		if !rep.Equivalent {
			return fmt.Errorf("equivalence check failed: %v", rep.Mismatches)
		}
		fmt.Fprintf(os.Stderr, "# equivalence verified: %d operator firings = %d reaction steps\n",
			rep.OperatorFirings, rep.ReactionSteps)
	}
	prog, init, err := core.ToGamma(g)
	if err != nil {
		return err
	}
	if reduce {
		reduced, fused, err := core.Reduce(prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# reduction fused %d reactions (%d -> %d)\n",
			fused, len(prog.Reactions), len(reduced.Reactions))
		prog = reduced
	}
	if tel.Enabled() {
		// Observe the conversion's output, not just print it: execute the
		// emitted Gamma program on a copy of its init multiset so the trace
		// shows the program the user is about to run.
		job := &schema.Job{Plan: gamma.Sequence(prog), Init: init.Clone()}
		gopt, dopt := schema.RunSpec{Workers: 1, MaxSteps: 1_000_000}.Lower(tel.Schedule(), nil)
		out, err := job.Run(ctx, gopt, dopt)
		defer tel.PrintMetrics(os.Stdout, out)
		if err != nil {
			return fmt.Errorf("traced run of converted program: %w", err)
		}
	}
	fmt.Print(gammalang.FormatFile(gammalang.NewFile(prog, init)))
	return nil
}
