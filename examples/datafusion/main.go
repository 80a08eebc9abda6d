// Datafusion: a miniature of the Gamma data-fusion application the paper's
// authors built for target tracking (reference [1] of the paper). Sensor
// reports are multiset elements [position, track, scan]: several sensors
// observe each track at each radar scan, and a fusion reaction merges pairs
// of same-track, same-scan reports by averaging until one fused report per
// (track, scan) remains:
//
//	F = replace [p1, id, s], [p2, id, s] by [(p1 + p2) / 2, id, s]
//
// The shared label variable id and tag variable s are exactly the paper's
// tag-matching device: only reports of the same track and scan can react.
package main

import (
	"fmt"
	"log"
	"math/rand"

	gammaflow "repro"
)

func main() {
	fusion, err := gammaflow.ParseReaction(
		`F = replace [p1, id, s], [p2, id, s] by [(p1 + p2) / 2, id, s]`)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := gammaflow.NewProgram("fusion", fusion)
	if err != nil {
		log.Fatal(err)
	}

	// Synthetic sensor feed: 3 tracks, 4 scans, 8 sensors per (track, scan).
	// Each sensor reads the true position plus bounded noise.
	rng := rand.New(rand.NewSource(1))
	truth := map[string]int64{"trk0": 1000, "trk1": 5000, "trk2": 9000}
	m := gammaflow.NewMultiset()
	reports := 0
	for scan := int64(0); scan < 4; scan++ {
		for trk, pos := range truth {
			for s := 0; s < 8; s++ {
				noisy := pos + scan*40 + int64(rng.Intn(21)-10)
				m.Add(gammaflow.Elem(gammaflow.Int(noisy), trk, scan))
				reports++
			}
		}
	}
	fmt.Printf("ingested %d sensor reports across %d tracks x 4 scans\n", reports, len(truth))

	stats, err := gammaflow.RunProgram(prog, m, gammaflow.ProgramOptions{RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{Workers: 4, Seed: 3}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fusion ran %d reactions on 4 workers (%v inside their sub-solutions)\n\n",
		stats.Steps, stats.PartSteps)

	// One fused report per (track, scan) remains; repeated pairwise
	// averaging keeps each estimate within the sensors' noise envelope.
	for trk, pos := range truth {
		fmt.Printf("%s (true start %d):", trk, pos)
		for _, c := range m.ByLabel(trk) {
			tag, _ := c.Tuple.Tag()
			est := c.Tuple.Value().AsInt()
			want := pos + tag*40
			drift := est - want
			if drift < -10 || drift > 10 {
				log.Fatalf("%s scan %d: estimate %d drifted %d from %d", trk, tag, est, drift, want)
			}
			fmt.Printf("  scan%d=%d", tag, est)
		}
		fmt.Println()
	}
	fmt.Printf("\nstable multiset holds %d fused reports (expected %d)\n", m.Len(), len(truth)*4)
}
