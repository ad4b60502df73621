//go:build race

package fabric

// raceEnabled reports whether the race detector is compiled in; allocation
// counts skip themselves under it, because it makes sync.Pool drop a share
// of what is put back at random.
const raceEnabled = true
