//go:build !race

package serial

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
