//go:build !race

package experiments

// raceDetector is true when the tests run under the race detector, whose
// own allocations a malloc budget may have to make room for.
const raceDetector = false
