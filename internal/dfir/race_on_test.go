//go:build race

package dfir

// raceEnabled gates allocation-count assertions: the race detector makes map
// operations and goroutine hand-offs allocate, so allocation shape is only
// meaningful in non-race builds.
const raceEnabled = true
