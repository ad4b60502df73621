package core

import (
	"fmt"
	"sync"

	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// regionScratch recycles the region slices bindings hand to
// handler.Regions, keeping the datatype hot path free of a per-operation
// slice. Slices are cleared before being pooled so no application memory
// is retained.
var regionScratch = sync.Pool{New: func() any { return new([][]byte) }}

// getRegionScratch returns a pooled region slice of length n.
func getRegionScratch(n Count) *[][]byte {
	sp := regionScratch.Get().(*[][]byte)
	if int64(cap(*sp)) < n {
		*sp = make([][]byte, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// putRegionScratch drops region references and recycles the slice.
func putRegionScratch(sp *[][]byte) {
	s := *sp
	for i := range s {
		s[i] = nil
	}
	*sp = s[:0]
	regionScratch.Put(sp)
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
