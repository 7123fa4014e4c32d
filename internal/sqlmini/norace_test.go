//go:build !race

package sqlmini_test

// raceEnabled reports a build with the race detector (see race_test.go).
const raceEnabled = false
