package core

import (
	"fmt"
	"sync"

	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// regionScratch is what a binding's region tail is built in: the slice
// handler.Regions fills and the Iov's offset index over it. Both are
// pooled, so a message allocates neither whatever its region count; the
// regions are cleared before the pair is pooled so no application memory
// is retained.
type regionScratch struct {
	regions [][]byte
	cum     []int64 // len(regions)+1 entries: fabric.MakeIov's index
}

var regionScratchPool = sync.Pool{New: func() any { return new(regionScratch) }}

// getRegionScratch returns pooled scratch for n regions.
func getRegionScratch(n Count) *regionScratch {
	s := regionScratchPool.Get().(*regionScratch)
	if int64(cap(s.regions)) < n {
		s.regions = make([][]byte, n)
	}
	if int64(cap(s.cum)) < n+1 {
		s.cum = make([]int64, n+1)
	}
	s.regions, s.cum = s.regions[:n], s.cum[:n+1]
	return s
}

// putRegionScratch drops region references and recycles the scratch.
func putRegionScratch(s *regionScratch) {
	clear(s.regions)
	s.regions = s.regions[:0]
	regionScratchPool.Put(s)
}

// PackedSize returns the packed byte size of count elements of dt at buf
// (MPI_Pack_size): the size of the wire image a send of (buf, count, dt)
// carries. For custom datatypes that runs the handler's query callbacks
// against buf.
func PackedSize(buf any, count Count, dt *Datatype) (Count, error) {
	st, err := dt.transport().SendState(buf, count)
	if err != nil {
		return 0, err
	}
	return st.Size(), st.Finish()
}

// Pack serializes count elements of dt at buf into dst (MPI_Pack) and
// returns the number of bytes written: the message's wire image, packed
// part then regions. This is the "manual pack before a byte send"
// baseline of the paper's evaluation when driven by a derived datatype;
// applications usually write their own loops instead.
func Pack(buf any, count Count, dt *Datatype, dst []byte) (Count, error) {
	st, err := dt.transport().SendState(buf, count)
	if err != nil {
		return 0, err
	}
	total := st.Size()
	if int64(len(dst)) < total {
		err = fmt.Errorf("core: pack destination too small (%d < %d)", len(dst), total)
	} else {
		err = fabric.Transfer(st, 0, fabric.Bytes(dst), 0, total, nil)
	}
	if ferr := st.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return 0, err
	}
	return total, nil
}

// Unpack deserializes src, a wire image Pack produced, into count elements
// of dt at buf (MPI_Unpack). No message header came with it: a handler is
// asked for its packed-part length against buf, and src must be exactly
// that plus buf's regions. Raw bytes may underfill buf.
func Unpack(src []byte, buf any, count Count, dt *Datatype) error {
	var (
		sink ucp.RecvState
		err  error
	)
	if dt.handler == nil {
		sink, err = ucp.Contig{}.RecvState(buf, -1, ucp.RecvInfo{})
	} else {
		sink, err = dt.bind(buf, count, int64(len(src)), -1)
	}
	if err != nil {
		return err
	}
	if int64(len(src)) > sink.Size() {
		err = fmt.Errorf("core: unpack destination too small (%d < %d)", sink.Size(), len(src))
	} else {
		err = fabric.Transfer(fabric.Bytes(src), 0, sink, 0, int64(len(src)), nil)
	}
	if ferr := sink.Finish(); err == nil {
		err = ferr
	}
	return err
}
