//go:build race

package gammaflow

// raceEnabled gates allocation-size assertions: allocation sizes differ under
// the race detector, so bytes per step are only meaningful in non-race builds.
const raceEnabled = true
