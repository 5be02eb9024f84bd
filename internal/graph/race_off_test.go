//go:build !race

package graph_test

const raceEnabled = false
