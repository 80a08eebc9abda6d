//go:build !race

package gammaflow

const raceEnabled = false
