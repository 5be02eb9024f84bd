package transport

// RaceDetector hands the external tests the build's race flag: a test that
// counts on sync.Pool reuse skips under it, as TestSessionBuffersAreReused does.
const RaceDetector = raceDetector

// Version is the protocol version, for the tests that handshake by hand.
const Version = version
