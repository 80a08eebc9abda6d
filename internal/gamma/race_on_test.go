//go:build race

package gamma

// raceEnabled gates allocation-count assertions: under the race detector map
// operations allocate, so alloc-exactness is only meaningful in non-race
// builds.
const raceEnabled = true
