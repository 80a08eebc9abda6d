//go:build race

package multiset

// raceEnabled gates allocation assertions: the race detector makes sync.Pool
// drop items at random, so the commit scratch is reallocated and
// allocation-free checks are only meaningful in non-race builds.
const raceEnabled = true
