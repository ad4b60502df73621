//go:build !race

package fabric

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
