//go:build !race

package transport

const raceDetector = false
