//go:build race

package milp

// raceDetector reports whether the tests run under the race detector, whose
// sync.Pool drops a quarter of the items put back on purpose.
const raceDetector = true
