//go:build !race

package repro

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
