//go:build linux

package launch

import (
	"fmt"
	"math/bits"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_{get,set}affinity(2) mask: bit c%64 of word c/64 is
// CPU c.
type cpuMask []uint64

// threadMask reads the calling thread's affinity mask. The kernel refuses a
// buffer shorter than its own mask, so the buffer grows until one fits.
func threadMask() (cpuMask, error) {
	for words := 16; ; words *= 2 {
		m := make(cpuMask, words)
		n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(8*len(m)), uintptr(unsafe.Pointer(&m[0])))
		if errno == 0 {
			return m[:(n+7)/8], nil
		}
		if errno != syscall.EINVAL || words >= 1<<12 {
			return nil, fmt.Errorf("sched_getaffinity: %w", errno)
		}
	}
}

func setThreadMask(m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, uintptr(8*len(m)), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// allowedCPUs lists the CPUs the calling thread may run on, ascending.
func allowedCPUs() ([]int, error) {
	m, err := threadMask()
	if err != nil {
		return nil, err
	}
	var cpus []int
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			cpus = append(cpus, 64*w+bits.TrailingZeros64(word))
		}
	}
	return cpus, nil
}

// pinThread locks the calling goroutine to its thread and confines the
// thread to cpus, so a process it forks starts there. unpin puts the
// thread's mask back and unlocks it; a thread whose mask could not be put
// back stays locked to the goroutine rather than run other goroutines
// confined.
func pinThread(cpus []int) (unpin func(), err error) {
	runtime.LockOSThread()
	old, err := threadMask()
	if err == nil {
		m := make(cpuMask, len(old))
		for _, c := range cpus {
			m[c/64] |= 1 << (c % 64)
		}
		err = setThreadMask(m)
	}
	if err != nil {
		runtime.UnlockOSThread()
		return nil, err
	}
	return func() {
		if setThreadMask(old) == nil {
			runtime.UnlockOSThread()
		}
	}, nil
}
