//go:build race

package graph_test

// raceEnabled: the race detector instruments allocation, so allocation and
// retained-bytes budgets cannot hold under it.
const raceEnabled = true
