//go:build race

package sqlmini_test

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates besides the statements TestSQLBytesLedger
// measures.
const raceEnabled = true
