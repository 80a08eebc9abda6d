// IoT: the paper's closing motivation — Gamma programs over sensor data, the
// deployment style it envisions for Internet-of-Things environments (§IV
// future work) — shown on the part of it the paper defines: the ';'
// composition of two reactions over edge telemetry:
//
//	AGG  = replace [t1, id, s], [t2, id, s] by [(t1 + t2) / 2, id, s]
//	           — fuse same-device, same-window temperature readings
//	ALRM = replace [t, id, s] by [t, 'alarm', s] if t > 90
//	           — escalate overheated fused readings to a global alarm label
//
// Executed with ALRM sequenced after AGG (the paper's ';' composition), so
// alarms fire on fused values rather than raw samples.
package main

import (
	"fmt"
	"log"
	"math/rand"

	gammaflow "repro"
)

func main() {
	file, err := gammaflow.ParseGammaFile(`
AGG  = replace [t1, id, s], [t2, id, s] by [(t1 + t2) / 2, id, s]
ALRM = replace [t, id, s] by [t, 'alarm', s] if t > 90 and id != 'alarm'
AGG ; ALRM
`)
	if err != nil {
		log.Fatal(err)
	}

	// Synthetic edge telemetry: 16 devices, 4 readings each in one window.
	// Devices 3 and 11 run hot.
	rng := rand.New(rand.NewSource(7))
	m := gammaflow.NewMultiset()
	for dev := 0; dev < 16; dev++ {
		base := int64(55 + rng.Intn(20))
		if dev == 3 || dev == 11 {
			base = 95
		}
		for r := 0; r < 4; r++ {
			m.Add(gammaflow.Elem(
				gammaflow.Int(base+int64(rng.Intn(5))),
				fmt.Sprintf("dev%02d", dev), 0))
		}
	}
	fmt.Printf("telemetry: %d readings from 16 devices\n", m.Len())

	// Stage 1 (AGG) runs to its stable state, then stage 2 (ALRM).
	plan, err := file.Plan("edge")
	if err != nil {
		log.Fatal(err)
	}
	stats, err := gammaflow.RunPlan(plan, m, gammaflow.ProgramOptions{
		RunConfig: gammaflow.RunConfig{RunSpec: gammaflow.RunSpec{Workers: 2}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AGG ; ALRM: %d reactions on %d workers\n", stats.Steps, stats.Workers)

	alarms := 0
	for _, a := range m.ByLabel("alarm") {
		alarms += a.N // two devices may fuse to the same temperature
		for i := 0; i < a.N; i++ {
			fmt.Printf("  ALARM: fused temperature %s\n", a.Tuple.Value())
		}
	}
	fmt.Printf("\nstable state: %d elements, %d alarms\n", m.Len(), alarms)
	if alarms != 2 {
		log.Fatalf("expected alarms for exactly devices 3 and 11, got %d", alarms)
	}
}
