//go:build !(linux || darwin)

package fabric

// shmPairs is empty where the SHM provider does not run.
func shmPairs() []nicPair { return nil }
