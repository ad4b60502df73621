//go:build !linux

package fabric

// Without process_vm_readv(2) nothing is published and every Get takes
// the pull window or the socket: Register and Deregister stay the stream
// core's.

func (s *SHM) cmaInit() {}

func (s *SHM) cmaClose() {}

func (s *SHM) cmaGet(from int, key uint64, off int64, sink Sink, sinkOff, size int64) (bool, error) {
	return false, nil
}
