//go:build race

package wire

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of what is put back: allocation bounds allow for the
// re-made pooled state.
const raceEnabled = true
