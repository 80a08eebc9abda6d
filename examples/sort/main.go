// Sort: the classic Gamma exchange sort, a standard example of multiset
// rewriting over structured elements. A sequence is represented as elements
// [value, index]; one reaction swaps the values of any out-of-order pair:
//
//	S = replace [a, i], [b, j] by [b, i], [a, j] if (i < j) and (a > b)
//
// The stable multiset is the sorted permutation. The example also converts
// the reaction to its dataflow subgraph (Algorithm 2) to show a swap as a
// steer network.
package main

import (
	"fmt"
	"log"
	"sort"

	gammaflow "repro"
)

func main() {
	swap, err := gammaflow.ParseReaction(
		`S = replace [a, i], [b, j] by [b, i], [a, j] if (i < j) and (a > b)`)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := gammaflow.NewProgram("sort", swap)
	if err != nil {
		log.Fatal(err)
	}

	input := []int64{42, 7, 99, 3, 58, 12, 31, 77, 21, 64, 5, 88}
	m := gammaflow.NewMultiset()
	for idx, v := range input {
		// [value, index]: the index occupies the tuple's second field.
		m.Add(gammaflow.Tuple{gammaflow.Int(v), gammaflow.Int(int64(idx))})
	}

	stats, err := gammaflow.RunProgram(prog, m, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{Seed: 2}}})
	if err != nil {
		log.Fatal(err)
	}

	got := make([]int64, len(input))
	m.ForEach(func(t gammaflow.Tuple, n int) bool {
		got[t[1].AsInt()] = t[0].AsInt()
		return true
	})
	fmt.Printf("input:  %v\n", input)
	fmt.Printf("sorted: %v  (%d swap reactions)\n", got, stats.Steps)

	want := append([]int64(nil), input...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("not sorted at %d: %v", i, got)
		}
	}

	// The parallel runtime splits the multiset into sub-solutions, swaps inside
	// each concurrently, and finishes on the whole.
	m2 := gammaflow.NewMultiset()
	for idx, v := range input {
		m2.Add(gammaflow.Tuple{gammaflow.Int(v), gammaflow.Int(int64(idx))})
	}
	stats2, err := gammaflow.RunProgram(prog, m2, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{Workers: 4, Seed: 9}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel run: %d swaps, %v inside the 4 sub-solutions, same fixpoint\n", stats2.Steps, stats2.PartSteps)

	// Algorithm 2 on the swap reaction: condition tree plus one steer per
	// routed operand.
	g, err := gammaflow.ReactionToGraph(swap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nswap reaction as a dataflow subgraph:\n%s", gammaflow.MarshalGraph(g))
}
