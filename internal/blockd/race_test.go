//go:build race

package blockd_test

// raceEnabled reports whether the race detector is built in.
const raceEnabled = true
