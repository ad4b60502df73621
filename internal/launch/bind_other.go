//go:build !linux

package launch

import (
	"errors"
	"runtime"
)

// Without sched_setaffinity(2) every rank is left to the kernel.

var errNoAffinity = errors.New("no CPU affinity on " + runtime.GOOS)

func allowedCPUs() ([]int, error) { return nil, errNoAffinity }

func pinThread([]int) (func(), error) { return nil, errNoAffinity }
