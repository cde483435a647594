//go:build !race

package tsdb

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of what is put back.
const raceEnabled = false
