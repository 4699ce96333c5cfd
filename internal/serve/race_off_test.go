//go:build !race

package serve

// raceDetectorEnabled mirrors race_on_test.go for non-race builds.
const raceDetectorEnabled = false
