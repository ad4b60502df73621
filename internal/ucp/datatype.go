package ucp

import (
	"fmt"

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
// transport analogue of ucp_datatype_t. The transport ships one, Contig;
// everything that is not a plain memory window — region lists, callback-
// packed types, both at once — is the layer above's single state type
// (core's binding), reached through this interface.
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

// contigState is the send and receive state of memory that is already
// laid out for the wire: the fabric's own Source/Sink plus a no-op Finish.
// Window is the embedded type's, so zero-copy sees through it; it is used
// by pointer, so putting it into an interface allocates nothing more.
type contigState struct{ fabric.Bytes }

func (*contigState) Finish() error { return nil }

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
