// Command gamma2df applies Algorithm 2: it converts Gamma source back into a
// dynamic dataflow graph.
//
// Two modes, matching the paper's two procedures:
//
//	gamma2df file.gamma            whole-program reconstruction: every
//	                               reaction is classified into the vertex it
//	                               behaves as (steer, inctag, ... — the
//	                               paper's future-work analysis) and wired
//	                               through its element labels; requires an
//	                               init {...} declaration for the roots.
//	gamma2df -reaction file.gamma  single-reaction subgraph (Algorithm 2
//	                               step 1): roots from the replace list,
//	                               steers from conditions, arithmetic trees
//	                               from the by list.
//
// The graph is printed in dfir text format; -dot additionally writes DOT.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dfir"
	"repro/internal/gammalang"
	"repro/internal/replay"
	"repro/internal/schema"
)

func main() {
	reaction := flag.Bool("reaction", false, "convert a single reaction to its subgraph (Algorithm 2 step 1)")
	dot := flag.String("dot", "", "also write the graph as Graphviz DOT to this file")
	var tel cli.TelemetryFlags
	tel.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gamma2df [flags] file.gamma")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}
	if err := tel.Start(replay.KindDataflow); err != nil { // the traced run executes the emitted graph
		cli.Exit("gamma2df", err)
	}
	err := run(flag.Arg(0), &tel, *reaction, *dot)
	if terr := tel.Finish(); err == nil {
		err = terr
	}
	cli.Exit("gamma2df", err)
}

func run(path string, tel *cli.TelemetryFlags, singleReaction bool, dot string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var g *dataflow.Graph
	if singleReaction {
		r, err := gammalang.ParseReaction(string(src))
		if err != nil {
			return err
		}
		g, err = core.ReactionToGraph(r)
		if err != nil {
			return err
		}
	} else {
		file, err := gammalang.ParseFile(string(src))
		if err != nil {
			return err
		}
		prog, err := file.Program(path)
		if err != nil {
			return err
		}
		g, err = core.ProgramToGraph(path, prog, file.Init)
		if err != nil {
			return err
		}
	}
	if dot != "" {
		if err := os.WriteFile(dot, []byte(dfir.ToDOT(g)), 0o644); err != nil {
			return err
		}
	}
	if tel.Enabled() {
		// Observe the conversion's output: execute the reconstructed graph so
		// the trace shows the dataflow execution the Gamma program maps to.
		// Single-reaction subgraphs have unconnected roots and are skipped.
		if !singleReaction {
			gopt, dopt := schema.RunSpec{MaxSteps: 1_000_000}.Lower(tel.Schedule(), nil)
			out, err := (&schema.Job{Graph: g}).Run(context.Background(), gopt, dopt)
			defer tel.PrintMetrics(os.Stdout, out)
			if err != nil {
				return fmt.Errorf("traced run of converted graph: %w", err)
			}
		} else {
			fmt.Fprintln(os.Stderr, "gamma2df: -reaction subgraphs are not executable; trace skipped")
		}
	}
	fmt.Print(dfir.Marshal(g))
	return nil
}
