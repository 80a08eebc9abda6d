//go:build race

package service

// raceEnabled gates allocation-byte assertions: the race detector makes
// sync.Pool drop items and instruments allocations, so bytes per request
// drift by a few hundred from run to run.
const raceEnabled = true
