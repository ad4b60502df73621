//go:build race

package workloads

// raceEnabled reports whether the race detector is compiled in; under it
// sync.Pool drops Puts at random, so allocation counts are noise.
const raceEnabled = true
