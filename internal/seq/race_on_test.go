//go:build race

package seq

// raceEnabled: the race detector makes sync.Pool drop items on purpose, so
// pooled-scratch allocation budgets cannot hold under it.
const raceEnabled = true
