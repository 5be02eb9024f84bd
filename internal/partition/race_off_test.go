//go:build !race

package partition

const raceDetector = false
