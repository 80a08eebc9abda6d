//go:build !race

package dfir

const raceEnabled = false
