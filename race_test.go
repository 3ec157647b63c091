//go:build race

package repro

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of what is put back, so allocation counts include re-made
// pooled state.
const raceEnabled = true
