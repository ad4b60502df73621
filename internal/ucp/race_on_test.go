//go:build race

package ucp

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards skip themselves under it.
const raceEnabled = true
