package ucp

import (
	"fmt"
	"io"

	"mpicd/internal/fabric"
)

// SendState is a live send-side view of (buffer, datatype): a byte source
// plus a completion hook that releases any per-operation state.
type SendState interface {
	fabric.Source
	// Finish releases per-operation resources; called exactly once when
	// the transfer completes (successfully or not).
	Finish() error
}

// RecvState is the receive-side dual of SendState.
type RecvState interface {
	fabric.Sink
	Finish() error
}

// RecvInfo carries the matched message's wire metadata into receive-state
// construction. Dynamic datatypes (e.g. serialized objects whose region
// layout is only known from an unpacked header) size their sinks from it.
type RecvInfo struct {
	From  int
	Tag   Tag
	Total int64 // message payload bytes
	Aux   int64 // sender-provided auxiliary word (packed-part length)
}

// Datatype lowers an application buffer to wire representations. It is the
// transport analogue of ucp_datatype_t: Contig, Iov and Generic implement
// it.
type Datatype interface {
	// SendState binds the datatype to a send buffer.
	SendState(buf any, count int64) (SendState, error)
	// RecvState binds the datatype to a receive buffer for the matched
	// message described by info.
	RecvState(buf any, count int64, info RecvInfo) (RecvState, error)
}

// AuxProvider is implemented by send states that supply the message's
// auxiliary header word themselves (e.g. the custom-datatype engine
// advertising its packed-part length). It overrides the aux argument of
// Worker.Send.
type AuxProvider interface {
	Aux() int64
}

// ProtoChooser is implemented by send states that override automatic
// protocol selection under ProtoAuto.
type ProtoChooser interface {
	ChooseProto(total, rndvThresh, iovMin int64) Proto
}

// contigState and iovState are the send and receive states of memory that
// is already laid out for the wire: the fabric's own Source/Sink plus a
// no-op Finish. Their optional methods (Window, NumRegions) are the
// embedded type's, so protocol selection and zero-copy see through them.
// contigState is used by pointer and iovState holds only a pointer, so
// putting either into an interface allocates nothing more.
type contigState struct{ fabric.Bytes }

func (*contigState) Finish() error { return nil }

type iovState struct{ *fabric.Iov }

func (iovState) Finish() error { return nil }

// Contig is the contiguous-buffer datatype (UCP_DATATYPE_CONTIG). Buffers
// must be []byte; count is the byte count (a negative count means "use the
// whole slice").
type Contig struct{}

// bind points st at the first count bytes of buf.
func (st *contigState) bind(buf any, count int64) error {
	b, ok := buf.([]byte)
	if !ok {
		if fb, ok := buf.(fabric.Bytes); ok {
			b = fb
		} else {
			return fmt.Errorf("ucp: Contig requires a []byte buffer, got %T", buf)
		}
	}
	if count < 0 {
		count = int64(len(b))
	}
	if count > int64(len(b)) {
		return fmt.Errorf("ucp: Contig count %d exceeds buffer length %d", count, len(b))
	}
	st.Bytes = b[:count]
	return nil
}

// SendState implements Datatype.
func (Contig) SendState(buf any, count int64) (SendState, error) {
	st := new(contigState)
	if err := st.bind(buf, count); err != nil {
		return nil, err
	}
	return st, nil
}

// RecvState implements Datatype.
func (Contig) RecvState(buf any, count int64, _ RecvInfo) (RecvState, error) {
	st := new(contigState)
	if err := st.bind(buf, count); err != nil {
		return nil, err
	}
	return st, nil
}

// sendState and recvState bind the request's datatype to its buffer. A
// contiguous buffer — most small messages — needs no state object of its
// own: its window is a field of the request, which outlives the transfer
// anyway.
func (r *Request) sendState(dt Datatype, buf any, count int64) (SendState, error) {
	if _, ok := dt.(Contig); !ok {
		return dt.SendState(buf, count)
	}
	if err := r.contig.bind(buf, count); err != nil {
		return nil, err
	}
	return &r.contig, nil
}

func (r *Request) recvState(info RecvInfo) (RecvState, error) {
	if _, ok := r.dt.(Contig); !ok {
		return r.dt.RecvState(r.buf, r.count, info)
	}
	if err := r.contig.bind(r.buf, r.count); err != nil {
		return nil, err
	}
	return &r.contig, nil
}

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

func (s *genericSink) Sequential() bool { return s.inorder }

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
