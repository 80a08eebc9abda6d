// Minelement: Eq. 2 of the paper — selecting the smallest element of a
// multiset with a single reaction — executed three ways: on the Gamma
// runtime sequentially, in parallel, and through Algorithm 2's multiset
// mapping (Fig. 4), where every reaction application becomes a dataflow
// subgraph instance.
package main

import (
	"fmt"
	"log"

	gammaflow "repro"
)

func main() {
	// Eq. 2 verbatim (the parenthesized form with a where clause).
	r, err := gammaflow.ParseReaction(`R = replace (x, y) by x where x < y`)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := gammaflow.NewProgram("min", r)
	if err != nil {
		log.Fatal(err)
	}

	vals := []int64{42, 7, 99, 3, 58, 12, 3, 77, 21, 64}
	build := func() *gammaflow.Multiset {
		m := gammaflow.NewMultiset()
		for _, v := range vals {
			m.Add(gammaflow.ScalarElem(gammaflow.Int(v)))
		}
		return m
	}

	// Sequential Gamma execution.
	m := build()
	stats, err := gammaflow.RunProgram(prog, m, gammaflow.ProgramOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Note: 3 appears twice in the input; Eq. 2's strict condition x < y
	// cannot react two equal elements, so a duplicated minimum survives
	// duplicated — faithful Gamma semantics.
	fmt.Printf("sequential gamma:   %s in %d reactions\n", m, stats.Steps)

	// Parallel, nondeterministic order — same stable state.
	m = build()
	stats, err = gammaflow.RunProgram(prog, m, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{Workers: 4, Seed: 7}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel gamma:     %s in %d reactions (%v inside the 4 sub-solutions)\n",
		m, stats.Steps, stats.PartSteps)

	// Algorithm 2: the reaction becomes a comparison + steer subgraph; the
	// mapper instantiates it per match until the Γ fixpoint (Fig. 4).
	g, err := gammaflow.ReactionToGraph(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreaction subgraph (Algorithm 2):\n%s\n", gammaflow.MarshalGraph(g))
	m = build()
	mapRes, err := gammaflow.MapMultiset(r, m, gammaflow.GraphOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped execution:   %s using %d dataflow instances (%d firings)\n",
		m, mapRes.Instances, mapRes.Firings)
}
