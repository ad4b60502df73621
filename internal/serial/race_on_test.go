//go:build race

package serial

// raceEnabled reports whether the race detector is compiled in; allocation
// counts differ under it, so the allocation guards skip their counts.
const raceEnabled = true
