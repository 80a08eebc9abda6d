//go:build race

package multiset

// raceEnabled gates allocation assertions: allocation counts and sizes differ
// under the race detector, so they are checked in non-race builds only.
const raceEnabled = true
