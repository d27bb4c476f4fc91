//go:build race

package bccrypto

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap: allocation counts there are not the program's.
const raceEnabled = true
