//go:build race

package engine

// raceEnabled: the race detector instruments allocation, and a sync.Pool —
// the run scratch's free list keeps its idle entries alive through one —
// drops some of what is put into it on purpose.
const raceEnabled = true
