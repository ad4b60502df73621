package ucp

import (
	"fmt"
	"io"

	"mpicd/internal/fabric"
)

// Test-local datatypes. The transport ships Contig only; these drive what
// Contig cannot through the worker: Iov a region list (many windows, early
// rendezvous), Generic a callback-packed stream (a source with no direct
// window, short packs, pack and unpack failures, an ordered sink).

type iovState struct{ *fabric.Iov }

func (iovState) Finish() error { return nil }

// Iov is the scatter/gather datatype (UCP_DATATYPE_IOV). Buffers must be
// [][]byte region lists; count is ignored (the regions define the size).
type Iov struct{}

func iovRegions(buf any) (*fabric.Iov, error) {
	switch v := buf.(type) {
	case [][]byte:
		return fabric.NewIov(v), nil
	case *fabric.Iov:
		return v, nil
	default:
		return nil, fmt.Errorf("ucp: Iov requires a [][]byte buffer, got %T", buf)
	}
}

// SendState implements Datatype.
func (Iov) SendState(buf any, _ int64) (SendState, error) {
	v, err := iovRegions(buf)
	if err != nil {
		return nil, err
	}
	return iovState{v}, nil
}

// RecvState implements Datatype.
func (Iov) RecvState(buf any, _ int64, _ RecvInfo) (RecvState, error) {
	v, err := iovRegions(buf)
	if err != nil {
		return nil, err
	}
	return iovState{v}, nil
}

// cutRegions cuts one size-byte array into n regions of equal length, give
// or take a byte, each capped at its end.
func cutRegions(size, n int) [][]byte {
	p, out := make([]byte, size), make([][]byte, n)
	for i := range out {
		lo, hi := i*size/n, (i+1)*size/n
		out[i] = p[lo:hi:hi]
	}
	return out
}

// GenericOps is the callback set behind a Generic datatype, mirroring
// ucp_generic_dt_ops: per-operation pack/unpack state with virtual byte
// offsets. The paper's custom-datatype callbacks were designed against
// exactly this interface shape.
type GenericOps interface {
	// StartPack binds a send buffer and returns its pack state.
	StartPack(buf any, count int64) (PackState, error)
	// StartUnpack binds a receive buffer and returns its unpack state.
	StartUnpack(buf any, count int64) (UnpackState, error)
}

// PackState packs a buffer fragment by fragment.
type PackState interface {
	// PackedSize returns the total number of bytes Pack will produce.
	PackedSize() (int64, error)
	// Pack fills dst with packed bytes starting at virtual offset off and
	// returns the number of bytes produced. It may underfill dst; the
	// transport continues from off+used.
	Pack(off int64, dst []byte) (used int, err error)
	// Finish releases the state.
	Finish() error
}

// UnpackState unpacks fragments back into the receive buffer.
type UnpackState interface {
	// UnpackedSize returns the total number of bytes Unpack will consume.
	UnpackedSize() (int64, error)
	// Unpack consumes src at virtual offset off.
	Unpack(off int64, src []byte) error
	// Finish releases the state.
	Finish() error
}

// Generic is the callback-driven datatype (UCP_DATATYPE_GENERIC).
type Generic struct {
	Ops GenericOps
	// InOrder requires unpack callbacks to observe strictly increasing
	// offsets; the transport buffers out-of-order fragments to honor it.
	InOrder bool
}

// SendState implements Datatype.
func (g Generic) SendState(buf any, count int64) (SendState, error) {
	if g.Ops == nil {
		return nil, fmt.Errorf("ucp: Generic datatype with nil Ops")
	}
	st, err := g.Ops.StartPack(buf, count)
	if err != nil {
		return nil, err
	}
	size, err := st.PackedSize()
	if err != nil {
		st.Finish()
		return nil, err
	}
	return &genericSrc{st: st, size: size}, nil
}

// RecvState implements Datatype.
func (g Generic) RecvState(buf any, count int64, _ RecvInfo) (RecvState, error) {
	if g.Ops == nil {
		return nil, fmt.Errorf("ucp: Generic datatype with nil Ops")
	}
	st, err := g.Ops.StartUnpack(buf, count)
	if err != nil {
		return nil, err
	}
	size, err := st.UnpackedSize()
	if err != nil {
		st.Finish()
		return nil, err
	}
	return &genericSink{st: st, size: size, inorder: g.InOrder}, nil
}

type genericSrc struct {
	st   PackState
	size int64
}

func (s *genericSrc) Size() int64 { return s.size }

func (s *genericSrc) ReadAt(dst []byte, off int64) (int, error) {
	if off < 0 || off > s.size {
		return 0, fmt.Errorf("ucp: generic pack offset %d out of range [0,%d]", off, s.size)
	}
	if rem := s.size - off; int64(len(dst)) > rem {
		dst = dst[:rem]
	}
	if len(dst) == 0 {
		return 0, io.EOF
	}
	used, err := s.st.Pack(off, dst)
	if err != nil {
		return used, err
	}
	if used < len(dst) && off+int64(used) == s.size {
		return used, io.EOF
	}
	return used, nil
}

func (s *genericSrc) Finish() error { return s.st.Finish() }

type genericSink struct {
	st      UnpackState
	size    int64
	inorder bool
}

func (s *genericSink) Size() int64 { return s.size }

func (s *genericSink) Ordered() int64 {
	if s.inorder {
		return s.size
	}
	return 0
}

func (s *genericSink) WriteAt(src []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(src)) > s.size {
		return 0, fmt.Errorf("ucp: generic unpack range [%d,%d) out of [0,%d]", off, off+int64(len(src)), s.size)
	}
	if err := s.st.Unpack(off, src); err != nil {
		return 0, err
	}
	return len(src), nil
}

func (s *genericSink) Finish() error { return s.st.Finish() }
