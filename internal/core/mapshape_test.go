package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/multiset"
	"repro/internal/value"
)

// TestMapMultisetAllocShape is the cost shape of Algorithm 2's mapping: Eq. 2
// min (`replace (x, y) by x where x < y`) mapped to its stable state at
// n = 256 and n = 1 024, one instance per firing (n − 1 of them). Allocations
// and bytes per instance must not grow with n and stay under fixed ceilings:
// an instance is one FindMatch, one SetConst per root, one run of the
// subgraph and one Add per output, whatever the multiset's size. Skipped
// under the race detector.
func TestMapMultisetAllocShape(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxAllocs, maxBytes, flat = 12.0, 1200.0, 1.1
	r := mustReaction(t, `R = replace (x, y) by x where x < y`)
	var prevA, prevB float64
	for _, n := range []int{256, 1024} {
		allocs, bytes, elapsed := ^uint64(0), ^uint64(0), time.Duration(1<<62)
		var x, y runtime.MemStats
		for i := 0; i < 3; i++ {
			m := multiset.New()
			for v := 0; v < n; v++ {
				m.Add(multiset.New1(value.Int(int64(v * 7919 % (4 * n)))))
			}
			runtime.ReadMemStats(&x)
			start := time.Now()
			res, err := MapMultiset(context.Background(), r, m, dataflow.Options{})
			d := time.Since(start)
			runtime.ReadMemStats(&y)
			if err != nil || res.Instances != n-1 || m.Len() != 1 {
				t.Fatalf("n=%d: %+v instances, %v, left %d elements", n, res, err, m.Len())
			}
			allocs, bytes, elapsed = min(allocs, y.Mallocs-x.Mallocs), min(bytes, y.TotalAlloc-x.TotalAlloc), min(elapsed, d)
		}
		perA, perB := float64(allocs)/float64(n-1), float64(bytes)/float64(n-1)
		t.Logf("n=%d: %.2f allocations, %.0f B, %.2f µs per instance", n, perA, perB, float64(elapsed.Microseconds())/float64(n-1))
		if perA > maxAllocs || perB > maxBytes {
			t.Errorf("n=%d: %.2f allocations and %.0f B per instance, ceilings %.0f and %.0f", n, perA, perB, maxAllocs, maxBytes)
		}
		if prevA > 0 && (perA > flat*prevA || perB > flat*prevB) {
			t.Errorf("n=%d: %.2f allocations and %.0f B per instance against %.2f and %.0f at a quarter the size: not flat", n, perA, perB, prevA, prevB)
		}
		prevA, prevB = perA, perB
	}
}
