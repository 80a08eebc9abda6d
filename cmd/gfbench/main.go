// Command gfbench regenerates the paper's experiments (DESIGN.md §3,
// E1–E11, E15 and the E17 fault matrix): it executes every figure, listing and
// claim and prints paper-vs-measured tables. EXPERIMENTS.md is written from
// this output. Performance is measured and gated elsewhere: bench/ owns the
// timed workloads, Go shape tests own the scaling and allocation properties.
//
// Usage:
//
//	gfbench [-exp e1|e3|e4|e5|e7|e8|e9|e11|e15|e17|all] [-figures dir] [-timeout 10m]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/rt"
)

type experiment struct {
	id   string
	desc string
	run  func() error
}

var experiments = []experiment{
	{"e1", "Fig. 1 / Example 1: expression in both models", expE1},
	{"e3", "Fig. 2 / Example 2: dynamic loop in both models", expE3},
	{"e4", "Eq. 2: min element", expE4},
	{"e5", "§III-A3 reductions (Rd1): granularity trade-off", expE5},
	{"e7", "Fig. 3 grammar: all paper listings parse", expE7},
	{"e8", "Fig. 4: multiset-to-instances mapping", expE8},
	{"e9", "Algorithm 1 equivalence on random graphs", expE9},
	{"e11", "§III-C correspondence: firings = reaction steps", expE11},
	{"e15", "work/span/parallelism profiles across both models", expE15},
	{"e17", "cancellation & fault-injection matrix (DESIGN.md §9)", expE17},
}

// selectExperiments resolves a comma-separated -exp list against the table,
// in table order. Empty items (stray commas) are ignored; an id the table
// does not hold is an error naming it, so a list that cites a removed
// experiment cannot run its other half and exit 0.
func selectExperiments(list string) ([]experiment, error) {
	valid := make([]string, len(experiments))
	known := map[string]bool{"all": true}
	for i, e := range experiments {
		valid[i] = e.id
		known[e.id] = true
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(valid, ", "))
		}
		wanted[id] = true
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("no experiment in -exp %q (valid: %s, all)", list, strings.Join(valid, ", "))
	}
	var sel []experiment
	for _, e := range experiments {
		if wanted["all"] || wanted[e.id] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1, e3, ...) or all")
	figures := flag.String("figures", "", "write the paper's figures (DOT + dfir + gamma) into this directory and exit")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long, e.g. 10m (0 = no deadline)")
	flag.Parse()
	if *figures != "" {
		if err := writeFigures(*figures); err != nil {
			cli.Exit("gfbench", err)
		}
		return
	}
	sel, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfbench: %v\n", err)
		os.Exit(cli.ExitUsage)
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()
	for _, e := range sel {
		// Experiments are checkpointed between runs: an interrupt or an
		// expired -timeout stops before the next one starts.
		if cerr := ctx.Err(); cerr != nil {
			stop()
			cli.Exit("gfbench", rt.FromContext(cerr))
		}
		fmt.Printf("### %s — %s\n\n", e.id, e.desc)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "gfbench: %s: %v\n", e.id, err)
			stop()
			os.Exit(cli.ExitCode(err))
		}
		fmt.Println()
	}
}
