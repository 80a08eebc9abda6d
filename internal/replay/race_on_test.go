//go:build race

package replay

// raceEnabled gates wall-clock assertions: the race detector multiplies the
// cost of every instrumented access, so nanoseconds per firing mean nothing.
const raceEnabled = true
