//go:build !race

package ucp

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
