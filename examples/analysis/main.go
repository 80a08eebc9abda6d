// Analysis: the cross-model benefits the paper's introduction promises, on
// one program — a Gamma source is type-checked (Structured-Gamma style),
// profiled for available parallelism (the dataflow-analysis benefit [2]),
// and finally reduced (§III-A3), with the profiler quantifying what the
// reduction traded away.
package main

import (
	"fmt"
	"log"

	gammaflow "repro"
)

// Eight independent instances of the paper's Example-1 expression.
const src = `
init {
  [1, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1'],
  [2, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1'],
  [3, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1'],
  [4, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1'],
  [5, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1'],
  [6, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1'],
  [7, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1'],
  [8, 'A1'], [5, 'B1'], [3, 'C1'], [2, 'D1']
}
R1 = replace [id1, 'A1'], [id2, 'B1'] by [id1 + id2, 'B2']
R2 = replace [id1, 'C1'], [id2, 'D1'] by [id1 * id2, 'C2']
R3 = replace [id1, 'B2'], [id2, 'C2'] by [id1 - id2, 'm']
`

func main() {
	file, err := gammaflow.ParseGammaFile(src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := file.Program("example1x8")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Static typing: infer the per-label schema and check the program.
	sch, err := gammaflow.InferSchema(prog, file.Init)
	if err != nil {
		log.Fatal(err)
	}
	if err := sch.Check(prog, file.Init); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inferred schema (Structured-Gamma style):\n%s\n", sch)

	// 2. Profile the full program: work, critical path, parallelism — a fold
	// over the run's recorded firing schedule.
	rec := gammaflow.NewScheduleRecorder(gammaflow.ScheduleGamma, "example1x8")
	m := file.Init.Clone()
	stats, err := gammaflow.RunProgram(prog, m, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{Schedule: rec}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full program:    %s\n", rec.Schedule().Profile())
	mCount := 0
	for _, c := range m.ByLabel("m") {
		mCount += c.N
	}
	fmt.Printf("results:         %d m-elements in %d reactions\n\n", mCount, stats.Steps)

	// 3. Reduce to Rd1 and profile again: one firing per instance, span 1 —
	// the §III-A3 trade-off measured.
	reduced, fused, err := gammaflow.Reduce(prog)
	if err != nil {
		log.Fatal(err)
	}
	rec2 := gammaflow.NewScheduleRecorder(gammaflow.ScheduleGamma, "reduced")
	m2 := file.Init.Clone()
	if _, err := gammaflow.RunProgram(reduced, m2, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{Schedule: rec2}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reduction: %d fusions -> %s\n", fused, gammaflow.FormatProgram(reduced))
	fmt.Printf("reduced profile: %s\n", rec2.Schedule().Profile())
	fmt.Println("\nthe reduction shrinks span per instance to 1 but halves peak parallelism —")
	fmt.Println("exactly the paper's granularity observation, measured")
}
