//go:build !race

package multiset

const raceEnabled = false
