// Loop: the paper's Example 2 (Fig. 2) — a dynamic loop with steer and
// inctag vertices — compiled from source, executed in both models, converted
// back from Gamma to dataflow with the reaction classifier, and reduced.
package main

import (
	"fmt"
	"log"

	gammaflow "repro"
)

func main() {
	// for (i = z; i > 0; i--) x = x + y;  — observable via output x.
	g, err := gammaflow.CompileSource("example2", `
		int y = 4;
		int z = 3;
		int x = 10;
		int i;
		for (i = z; i > 0; i--) x = x + y;
		output x;
	`)
	if err != nil {
		log.Fatal(err)
	}

	res, err := gammaflow.RunGraph(g, gammaflow.GraphOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{MaxSteps: 100000}}})
	if err != nil {
		log.Fatal(err)
	}
	x, _ := res.Output("x")
	fmt.Printf("dataflow: x = %s after the loop (expected 10 + 4*3 = 22)\n", x)

	// Algorithm 1 emits one reaction per vertex; the loop becomes the
	// R11-R19 structure of the paper's Example 2 (inctags increment the
	// iteration tag, steers branch on the i > 0 control element).
	prog, init, err := gammaflow.ToGamma(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconverted program has %d reactions over %d initial elements\n",
		len(prog.Reactions), init.Len())

	work := init.Clone()
	stats, err := gammaflow.RunProgram(prog, work, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{MaxSteps: 100000}}})
	if err != nil {
		log.Fatal(err)
	}
	outs := gammaflow.OutputsFromMultiset(work, []string{"x"})
	fmt.Printf("gamma: x = %s in %d reaction firings\n", outs["x"][0].Val, stats.Steps)

	// And back: the classifier (the paper's future work) recognizes each
	// reaction's vertex kind and rebuilds an equivalent graph.
	back, err := gammaflow.ProgramToGraph("reconstructed", prog, init.Clone())
	if err != nil {
		log.Fatal(err)
	}
	res2, err := gammaflow.RunGraph(back, gammaflow.GraphOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{MaxSteps: 100000}}})
	if err != nil {
		log.Fatal(err)
	}
	x2, _ := res2.Output("x")
	fmt.Printf("round trip (gamma -> dataflow): x = %s\n", x2)

	// The same loop on 4 Gamma workers, and the dataflow run's depth: the
	// dependency levels that fired past its consts (Result.Ticks).
	mp := init.Clone()
	if _, err := gammaflow.RunProgram(prog, mp, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{Workers: 4, Seed: 1, MaxSteps: 100000}}}); err != nil {
		log.Fatal(err)
	}
	outsP := gammaflow.OutputsFromMultiset(mp, []string{"x"})
	fmt.Printf("dataflow ticks = %d, parallel gamma x = %s\n", res.Ticks, outsP["x"][0].Val)
}
