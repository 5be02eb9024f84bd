//go:build race

package transport

// raceDetector: under it sync.Pool drops a quarter of what is put into it, on
// purpose, so a test that counts on reuse has nothing to measure.
const raceDetector = true
