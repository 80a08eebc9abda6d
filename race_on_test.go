//go:build race

package gammaflow

// raceEnabled gates allocation-size assertions: the race detector makes
// sync.Pool drop the commit scratch, so bytes per step are only meaningful
// in non-race builds.
const raceEnabled = true
