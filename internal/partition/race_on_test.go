//go:build race

package partition

// raceDetector: the race detector instruments allocation, so a test that pins
// the bytes a cut allocates has nothing to measure under it.
const raceDetector = true
