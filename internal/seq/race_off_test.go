//go:build !race

package seq

const raceEnabled = false
