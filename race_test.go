//go:build race

package bpagg

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates besides what an allocation count pins.
const raceEnabled = true
