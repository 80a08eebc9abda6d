package dfir

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/value"
)

// wideGraph builds width instances of the df_wide shape (const → compare
// with an immediate → steer, then a depth-deep arithmetic chain on each
// branch): 32 × 8 is the graph a dataflow request of svc_mixed carries.
func wideGraph(t *testing.T, width, depth int) *dataflow.Graph {
	g := dataflow.NewGraph(fmt.Sprintf("wide%dx%d", width, depth))
	connect := func(from dataflow.NodeID, fp int, to dataflow.NodeID, tp int, label string) {
		if _, err := g.Connect(from, fp, to, tp, label); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < width; i++ {
		x := g.AddConst(fmt.Sprintf("x%d", i), value.Int(int64(i*389%1000)))
		c := g.AddCompareImm(fmt.Sprintf("c%d", i), "<", value.Int(500))
		st := g.AddSteer(fmt.Sprintf("st%d", i))
		connect(x, 0, c, 0, fmt.Sprintf("e%d.c", i))
		connect(x, 0, st, 0, fmt.Sprintf("e%d.d", i))
		connect(c, 0, st, 1, fmt.Sprintf("e%d.s", i))
		tn, tp, fn, fp := st, dataflow.PortTrue, st, dataflow.PortFalse
		for d := 0; d < depth; d++ {
			tv := g.AddArithImm(fmt.Sprintf("t%d.%d", i, d), "+", value.Int(int64(d+1)))
			connect(tn, tp, tv, 0, fmt.Sprintf("e%d.t%d", i, d))
			fv := g.AddArithImm(fmt.Sprintf("f%d.%d", i, d), "*", value.Int(2))
			connect(fn, fp, fv, 0, fmt.Sprintf("e%d.f%d", i, d))
			tn, tp, fn, fp = tv, 0, fv, 0
		}
		connect(tn, tp, dataflow.NoNode, 0, fmt.Sprintf("outT%d", i))
		connect(fn, fp, dataflow.NoNode, 0, fmt.Sprintf("outF%d", i))
	}
	return g
}

// allocsOf returns the fewest allocations and bytes of three calls of f.
func allocsOf(f func()) (allocs, bytes uint64) {
	allocs, bytes = ^uint64(0), ^uint64(0)
	var a, b runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		allocs, bytes = min(allocs, b.Mallocs-a.Mallocs), min(bytes, b.TotalAlloc-a.TotalAlloc)
	}
	return allocs, bytes
}

// TestCodecAllocShape holds the codec's cost to its text: decoding makes at
// most 1.5 allocations per line and 16 B per source byte, never rising from
// width 4 to 256 of the wide graph, and encoding makes one allocation, the
// text.
func TestCodecAllocShape(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxAllocs, maxBytes, flat = 1.5, 16.0, 1.5
	var baseA, baseB float64 // width 4's figures
	for _, width := range []int{4, 32, 256} {
		g := wideGraph(t, width, 8)
		text := Marshal(g)
		var err error
		allocs, bytes := allocsOf(func() { _, err = Unmarshal(text) })
		if err != nil {
			t.Fatal(err)
		}
		perLine := float64(allocs) / float64(strings.Count(text, "\n"))
		perByte := float64(bytes) / float64(len(text))
		t.Logf("width %d: %d B of text; Unmarshal %d allocs (%.2f per line), %d B (%.1f per byte)",
			width, len(text), allocs, perLine, bytes, perByte)
		if perLine > maxAllocs || perByte > maxBytes {
			t.Errorf("width %d: Unmarshal makes %.2f allocations per line and %.1f B per source byte, ceilings %.1f and %.0f",
				width, perLine, perByte, maxAllocs, maxBytes)
		}
		if baseA == 0 {
			baseA, baseB = perLine, perByte
		} else if perLine > flat*baseA || perByte > flat*baseB {
			t.Errorf("width %d: %.2f allocations per line and %.1f B per byte against width 4's %.2f and %.1f: not flat",
				width, perLine, perByte, baseA, baseB)
		}
		if allocs, _ := allocsOf(func() { text = Marshal(g) }); allocs != 1 {
			t.Errorf("width %d: Marshal makes %d allocations, want 1", width, allocs)
		}
	}
}
