package serial

import (
	"errors"
	"fmt"
	"slices"

	"mpicd/internal/core"
)

// This file implements the three object-transfer strategies of the
// paper's Python evaluation (Section V.B) over the point-to-point engine:
//
//   - Basic     — "pickle-basic": the object is fully serialized into one
//     in-band byte stream and moved with a single message pair; the
//     receiver sizes its allocation with Mprobe.
//   - OOB       — "pickle-oob": the header travels in one message and each
//     out-of-band buffer in its own message (the mpi4py multi-message
//     protocol, with its tag-space and threading hazards).
//   - CDT       — "pickle-oob-cdt": the custom datatype proposed by the
//     paper carries header and buffers in a single MPI message; the
//     header is the packed part and the buffers are memory regions.
//
// DefaultThreshold matches pickle-5 behaviour of only hoisting large
// buffers out-of-band.
const DefaultThreshold = 4096

// SendBasic transfers v fully in-band.
func SendBasic(c *core.Comm, v any, dst, tag int) error {
	data, err := Dumps(v)
	if err != nil {
		return err
	}
	return c.Send(data, -1, core.TypeBytes, dst, tag)
}

// RecvBasic receives an object sent with SendBasic, allocating from the
// probed size.
func RecvBasic(c *core.Comm, src, tag int) (any, error) {
	m, err := c.Mprobe(src, tag)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, m.Bytes)
	if _, err := c.MRecv(m, buf, -1, core.TypeBytes); err != nil {
		return nil, err
	}
	return Loads(buf)
}

// SendOOB transfers v with the header in one message and every
// out-of-band buffer in its own follow-up message, all on the same tag —
// the multi-message protocol language bindings use today. The messages
// belong together, so concurrent senders on the same (comm, tag) would
// interleave; see TestOOBInterleavingHazard.
func SendOOB(c *core.Comm, v any, dst, tag, threshold int) error {
	header, oob, err := DumpsOOB(v, threshold)
	if err != nil {
		return err
	}
	if err := c.Send(header, -1, core.TypeBytes, dst, tag); err != nil {
		return err
	}
	reqs := make([]*core.Request, 0, len(oob))
	for _, b := range oob {
		r, err := c.Isend([]byte(b), -1, core.TypeBytes, dst, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	return core.WaitAll(reqs...)
}

// RecvOOB receives an object sent with SendOOB: it probes the header,
// reads the buffer lengths from it, and posts one receive per buffer.
func RecvOOB(c *core.Comm, src, tag int) (any, error) {
	m, err := c.Mprobe(src, tag)
	if err != nil {
		return nil, err
	}
	header := make([]byte, m.Bytes)
	if _, err := c.MRecv(m, header, -1, core.TypeBytes); err != nil {
		return nil, err
	}
	lens, err := BufferLens(header)
	if err != nil {
		return nil, err
	}
	oob := make([]Buffer, len(lens))
	reqs := make([]*core.Request, len(lens))
	for i, n := range lens {
		oob[i] = make(Buffer, n)
		// Buffers must come from the same source in order.
		r, err := c.Irecv([]byte(oob[i]), -1, core.TypeBytes, m.Source, tag)
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	if err := core.WaitAll(reqs...); err != nil {
		return nil, err
	}
	return LoadsOOB(header, oob)
}

// Msg is the buffer type of the custom-datatype strategy: fill Value (and
// optionally Threshold) to send; pass an empty Msg to receive and call
// Decode afterwards.
type Msg struct {
	// Value is the object to serialize (send side).
	Value any
	// Threshold is the out-of-band threshold in bytes; zero means
	// DefaultThreshold.
	Threshold int

	header []byte
	got    int64
	bufs   []Buffer
}

// Decode returns the received object. Decoded buffers alias the message's
// region memory (zero copy).
func (m *Msg) Decode() (any, error) {
	if m.header == nil {
		return nil, errors.New("serial: Decode before a completed receive")
	}
	return LoadsOOB(m.header, m.bufs)
}

// objectHandler implements core.CustomHandler for *Msg buffers.
type objectHandler struct{}

type objSendState struct {
	header []byte
	oob    []Buffer
}

func (objectHandler) State(buf any, _ core.Count) (any, error) {
	m, ok := buf.(*Msg)
	if !ok {
		return nil, fmt.Errorf("serial: object datatype requires *serial.Msg, got %T", buf)
	}
	if m.Value == nil {
		// Receive side: accumulate into the Msg itself.
		return m, nil
	}
	threshold := m.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	header, oob, err := DumpsOOB(m.Value, threshold)
	if err != nil {
		return nil, err
	}
	return &objSendState{header: header, oob: oob}, nil
}

func (objectHandler) FreeState(any) error { return nil }

func (objectHandler) PackedSize(state, _ any, _ core.Count) (core.Count, error) {
	switch s := state.(type) {
	case *objSendState:
		return int64(len(s.header)), nil
	default:
		return 0, errors.New("serial: receive side cannot pre-compute packed size")
	}
}

func (objectHandler) Pack(state, _ any, _, offset core.Count, dst []byte) (core.Count, error) {
	s, ok := state.(*objSendState)
	if !ok {
		return 0, errors.New("serial: pack on a receive-side state")
	}
	return int64(copy(dst, s.header[offset:])), nil
}

func (objectHandler) Unpack(state, _ any, _, offset core.Count, src []byte) error {
	m, ok := state.(*Msg)
	if !ok {
		return errors.New("serial: unpack on a send-side state")
	}
	if need := int(offset) + len(src); len(m.header) < need {
		// Doubling: a header that arrives in k fragments is grown
		// O(log k) times and copied O(1) times a byte, not k and O(k).
		if need > cap(m.header) {
			m.header = slices.Grow(m.header, max(need, 2*cap(m.header))-len(m.header))
		}
		m.header = m.header[:need]
	}
	copy(m.header[offset:], src)
	m.got += int64(len(src))
	return nil
}

func (objectHandler) RegionCount(state, _ any, _ core.Count) (core.Count, error) {
	switch s := state.(type) {
	case *objSendState:
		return int64(len(s.oob)), nil
	case *Msg:
		// Called only after the packed part (header) was unpacked in
		// order: the region layout comes from the header.
		lens, err := BufferLens(s.header)
		if err != nil {
			return 0, err
		}
		s.bufs = make([]Buffer, len(lens))
		for i, n := range lens {
			s.bufs[i] = make(Buffer, n)
		}
		return int64(len(lens)), nil
	default:
		return 0, errors.New("serial: bad state")
	}
}

func (objectHandler) Regions(state, _ any, _ core.Count, regions [][]byte) error {
	switch s := state.(type) {
	case *objSendState:
		for i, b := range s.oob {
			regions[i] = b
		}
	case *Msg:
		if s.bufs == nil {
			var h objectHandler
			if _, err := h.RegionCount(state, nil, 0); err != nil {
				return err
			}
		}
		for i, b := range s.bufs {
			regions[i] = b
		}
	default:
		return errors.New("serial: bad state")
	}
	return nil
}

// ObjectType returns the custom datatype that moves a serialized object —
// header packed in-band, buffers as zero-copy regions — in one MPI
// message. The region layout on the receive side depends on the unpacked
// header, so the type requires in-order delivery.
func ObjectType() *core.Datatype {
	return core.TypeCreateCustom(objectHandler{}, core.WithInOrder(), core.WithName("serialized-object"))
}

// SendCDT transfers v through the custom datatype in a single message.
func SendCDT(c *core.Comm, v any, dst, tag, threshold int) error {
	return c.Send(&Msg{Value: v, Threshold: threshold}, 1, ObjectType(), dst, tag)
}

// RecvCDT receives an object sent with SendCDT.
func RecvCDT(c *core.Comm, src, tag int) (any, error) {
	var m Msg
	if _, err := c.Recv(&m, 1, ObjectType(), src, tag); err != nil {
		return nil, err
	}
	return m.Decode()
}
