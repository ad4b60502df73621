package core

import (
	"fmt"
	"sync"

	"mpicd/internal/ddt"
	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// Count is the element/byte count type (MPI_Count).
type Count = int64

// CustomHandler is the Go mirror of the paper's MPI_Type_create_custom
// callback set (Listings 2-5). One handler describes how buffers of an
// application type are serialized:
//
//   - State/FreeState    — MPI_Type_custom_state_function / _state_free_:
//     per-operation state bound to one buffer;
//   - PackedSize         — MPI_Type_custom_query_function: total bytes the
//     pack callbacks will produce (the in-band, packed part);
//   - Pack/Unpack        — MPI_Type_custom_pack/unpack_function: move the
//     packed part fragment by fragment at virtual byte offsets. Pack may
//     underfill dst (return used < len(dst)); the engine continues at
//     offset+used;
//   - RegionCount/Regions — MPI_Type_custom_region_count/region_function:
//     expose contiguous memory regions sent/received zero-copy after the
//     packed part.
//
// Every callback may fail; errors propagate to both ends of the transfer
// (the paper's MPI_SUCCESS / error-value convention). On the receive side
// the same handler runs against the receive buffer: Unpack reconstructs
// the packed part and Regions returns writable destination regions.
//
// Concurrency contract: unless the type is created WithInOrder, Pack and
// Unpack must tolerate being called at arbitrary — including concurrent —
// disjoint offsets against one state. The transport exploits this to
// stripe large rendezvous pulls across cores; inorder types are always
// driven sequentially at strictly increasing offsets.
type CustomHandler interface {
	// State allocates per-operation state for (buf, count); it may return
	// nil for stateless types.
	State(buf any, count Count) (state any, err error)
	// FreeState releases state when the operation completes.
	FreeState(state any) error
	// PackedSize returns the total packed-part size in bytes.
	PackedSize(state any, buf any, count Count) (Count, error)
	// Pack fills dst with packed bytes starting at virtual offset offset
	// and returns how many bytes it produced.
	Pack(state any, buf any, count Count, offset Count, dst []byte) (used Count, err error)
	// Unpack consumes a packed-part fragment at virtual offset offset.
	Unpack(state any, buf any, count Count, offset Count, src []byte) error
	// RegionCount returns how many memory regions the buffer exposes.
	RegionCount(state any, buf any, count Count) (Count, error)
	// Regions fills regions (length RegionCount) with the buffer's memory
	// regions, in wire order.
	Regions(state any, buf any, count Count, regions [][]byte) error
}

type kind int

const (
	kindBytes kind = iota
	kindDDT
	kindCustom
)

// Datatype is an MPI-level datatype: raw bytes, a derived datatype
// (classic typemap engine) or a custom serialization handler (the paper's
// contribution).
type Datatype struct {
	name    string
	kind    kind
	elem    *ddt.Type
	plan    *ddt.Plan // compiled pack program (kindDDT)
	handler CustomHandler
	inorder bool
}

// TypeBytes is the predefined MPI_BYTE-like datatype: buffers are []byte
// and count is a byte count (negative count means the whole slice).
var TypeBytes = &Datatype{name: "bytes", kind: kindBytes}

// FromDDT wraps a derived datatype built with package ddt. Buffers are
// []byte images in the type's C layout. This is the commit point: the
// type's plan is compiled (or fetched from the plan cache) here, so every
// subsequent pack, unpack and region extraction runs compiled kernels.
func FromDDT(t *ddt.Type) *Datatype {
	return &Datatype{name: t.Name(), kind: kindDDT, elem: t, plan: t.Plan()}
}

// CustomOption configures TypeCreateCustom.
type CustomOption func(*Datatype)

// WithInOrder sets the paper's inorder flag: unpack callbacks observe
// strictly increasing offsets and regions are resolved only after the
// packed part has been fully unpacked (required when the region layout
// depends on unpacked metadata, e.g. serialized dynamic objects).
func WithInOrder() CustomOption {
	return func(d *Datatype) { d.inorder = true }
}

// WithName names the type for diagnostics.
func WithName(name string) CustomOption {
	return func(d *Datatype) { d.name = name }
}

// TypeCreateCustom mirrors MPI_Type_create_custom: it builds a datatype
// from an application-provided serialization handler.
func TypeCreateCustom(h CustomHandler, opts ...CustomOption) *Datatype {
	d := &Datatype{name: "custom", kind: kindCustom, handler: h}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Name returns the datatype's debug name.
func (d *Datatype) Name() string { return d.name }

// DDT returns the underlying derived datatype, if any.
func (d *Datatype) DDT() *ddt.Type { return d.elem }

// transport lowers the MPI datatype to the transport datatype.
func (d *Datatype) transport() ucp.Datatype {
	switch d.kind {
	case kindBytes:
		return ucp.Contig{}
	case kindDDT:
		if d.elem.Contig() {
			return contigDDT{d.elem}
		}
		return ddtType{d}
	default:
		return customType{d}
	}
}

// extent returns bytes-per-element for count accounting, where defined.
func (d *Datatype) elemSize() int64 {
	switch d.kind {
	case kindBytes:
		return 1
	case kindDDT:
		return d.elem.Size()
	default:
		return 0 // element size is handler-defined
	}
}

// --- derived datatype adapters ----------------------------------------------

// contigDDT maps a fully contiguous derived type straight onto its
// memory: layout equals packed layout, so no engine involvement is needed
// (Open MPI's contiguous fast path) and the state of either direction is
// the buffer itself.
type contigDDT struct{ t *ddt.Type }

type contigImage struct{ fabric.Bytes }

func (*contigImage) Finish() error { return nil }

func (c contigDDT) state(buf any, count int64) (*contigImage, error) {
	b, ok := buf.([]byte)
	if !ok {
		return nil, fmt.Errorf("core: derived datatype requires a []byte image, got %T", buf)
	}
	size := c.t.PackedSize(count)
	if int64(len(b)) < size {
		return nil, fmt.Errorf("core: buffer of %d bytes cannot hold %d x %s", len(b), count, c.t.Name())
	}
	return &contigImage{b[:size]}, nil
}

func (c contigDDT) SendState(buf any, count int64) (ucp.SendState, error) {
	st, err := c.state(buf, count)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (c contigDDT) RecvState(buf any, count int64, _ ucp.RecvInfo) (ucp.RecvState, error) {
	st, err := c.state(buf, count)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ddtType lowers a non-contiguous derived datatype per operation: small
// or fragmented layouts stream through the compiled plan's pack kernels;
// large layouts with substantial contiguous runs are exposed as a
// memory-region list instead, so the rendezvous pull moves them zero-copy
// like the paper's custom types. Like customType it wraps one pointer, so
// lowering a Datatype to it allocates nothing.
type ddtType struct{ d *Datatype }

// Region-path thresholds: worth bypassing the pack kernels only when the
// message is rendezvous-sized and the average region is long enough that
// per-region bookkeeping beats one packed copy.
const (
	ddtRegionMinTotal = 32 << 10 // below this, eager + pack always wins
	ddtRegionMinAvg   = 1 << 10  // average contiguous run length floor
	ddtRegionMaxCount = 1 << 16  // iovec bookkeeping ceiling
)

func (dt ddtType) useRegions(count int64) bool {
	n := dt.d.plan.RegionCount(count)
	if n <= 1 || n > ddtRegionMaxCount {
		return false
	}
	total := dt.d.plan.PackedSize(count)
	return total >= ddtRegionMinTotal && total/n >= ddtRegionMinAvg
}

// state binds (buf, count): the pooled iovec view when the layout rides
// regions (Finish returns the scratch to the pool shared with the
// custom-datatype engine), the pack-kernel stream otherwise.
func (dt ddtType) state(buf any, count int64) (ddtState, error) {
	b, ok := buf.([]byte)
	if !ok {
		return nil, fmt.Errorf("core: derived datatype requires a []byte image, got %T", buf)
	}
	plan := dt.d.plan
	if !dt.useRegions(count) {
		return &ddtPackState{plan: plan, buf: b, count: count}, nil
	}
	sp := getRegionScratch(plan.RegionCount(count))
	regs, err := plan.AppendRegions((*sp)[:0], b, count)
	if err != nil {
		putRegionScratch(sp)
		return nil, err
	}
	*sp = regs
	return &ddtIovState{iov: fabric.NewIov(regs), scratch: sp}, nil
}

// ddtState serves both directions: the wire stream is the packed byte
// order either way, so sender and receiver choose pack vs. regions
// independently.
type ddtState interface {
	ucp.SendState
	ucp.RecvState
}

func (dt ddtType) SendState(buf any, count int64) (ucp.SendState, error) {
	return dt.state(buf, count)
}

func (dt ddtType) RecvState(buf any, count int64, _ ucp.RecvInfo) (ucp.RecvState, error) {
	return dt.state(buf, count)
}

// ddtIovState is the region view. Window gives the rendezvous pull direct
// (zero-copy) access to the application buffer.
type ddtIovState struct {
	iov     *fabric.Iov
	scratch *[][]byte
}

func (s *ddtIovState) Size() int64                               { return s.iov.Size() }
func (s *ddtIovState) ReadAt(dst []byte, off int64) (int, error) { return s.iov.ReadAt(dst, off) }
func (s *ddtIovState) WriteAt(src []byte, off int64) (int, error) {
	return s.iov.WriteAt(src, off)
}
func (s *ddtIovState) Window(off, n int64) ([]byte, bool) { return s.iov.Window(off, n) }
func (s *ddtIovState) NumRegions() int                    { return s.iov.NumRegions() }

func (s *ddtIovState) Finish() error {
	if s.scratch != nil {
		putRegionScratch(s.scratch)
		s.scratch = nil
	}
	return nil
}

// ddtPackState streams (buf, count) through the compiled plan at virtual
// packed offsets: the descendant of the Open MPI / RSMPI derived-datatype
// send path the paper benchmarks as "rsmpi", backed by plan kernels
// instead of the typemap interpreter. It is the transport state itself —
// PackAt and UnpackAt already keep to the [0, Size] window — so a
// derived-datatype operation costs one object.
type ddtPackState struct {
	plan  *ddt.Plan
	buf   []byte
	count int64
}

func (s *ddtPackState) Size() int64 { return s.plan.PackedSize(s.count) }

func (s *ddtPackState) ReadAt(dst []byte, off int64) (int, error) {
	return s.plan.PackAt(s.buf, s.count, off, dst)
}

func (s *ddtPackState) WriteAt(src []byte, off int64) (int, error) {
	if err := s.plan.UnpackAt(s.buf, s.count, off, src); err != nil {
		return 0, err
	}
	return len(src), nil
}

func (s *ddtPackState) Finish() error { return nil }

// --- custom datatype engine ---------------------------------------------------

// customType adapts a custom handler to the transport. The wire image of a
// message is the packed part followed by the raw memory regions, exactly
// as the prototype lays out its UCP iovec (packed buffer first, then the
// region pointers).
type customType struct{ d *Datatype }

// customSendState is the send-side binding. Its packed part streams
// through pack, which lives inside the state: the two are one object.
type customSendState struct {
	pack packSrc // handler, per-operation state and packed-part length
	src  *fabric.Concat
	nreg int
}

func (c customType) SendState(buf any, count int64) (ucp.SendState, error) {
	h := c.d.handler
	state, err := h.State(buf, count)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (ucp.SendState, error) {
		h.FreeState(state)
		return nil, err
	}
	packed, err := h.PackedSize(state, buf, count)
	if err != nil {
		return fail(err)
	}
	if packed < 0 {
		return fail(fmt.Errorf("core: negative packed size %d", packed))
	}
	nreg, err := h.RegionCount(state, buf, count)
	if err != nil {
		return fail(err)
	}
	if nreg < 0 {
		return fail(fmt.Errorf("core: negative region count %d", nreg))
	}
	regions := make([][]byte, nreg)
	if nreg > 0 {
		if err := h.Regions(state, buf, count, regions); err != nil {
			return fail(err)
		}
	}
	s := &customSendState{
		pack: packSrc{h: h, state: state, buf: buf, count: count, size: packed},
		nreg: int(nreg),
	}
	parts := make([]fabric.Source, 0, 2)
	if packed > 0 {
		parts = append(parts, &s.pack)
	}
	if nreg > 0 {
		parts = append(parts, fabric.NewIov(regions))
	}
	s.src = fabric.NewConcatSource(parts...)
	return s, nil
}

func (s *customSendState) Size() int64                             { return s.src.Size() }
func (s *customSendState) ReadAt(d []byte, off int64) (int, error) { return s.src.ReadAt(d, off) }
func (s *customSendState) Window(off, n int64) ([]byte, bool)      { return s.src.Window(off, n) }
func (s *customSendState) NumRegions() int                         { return s.nreg + 1 }
func (s *customSendState) Finish() error                           { return s.pack.h.FreeState(s.pack.state) }

// Aux implements ucp.AuxProvider: the receiver learns the packed-part
// length from the message header.
func (s *customSendState) Aux() int64 { return s.pack.size }

// ChooseProto implements ucp.ProtoChooser. Region-bearing custom types
// ride the iovec (pull) path as soon as messages are non-trivial — only
// the pull path gives the regions zero-copy treatment, and it is why the
// paper's custom method is insensitive to the eager/rendezvous
// switchover. Pure-pack custom types (no regions) behave like the
// contiguous path but switch earlier, so their curve has no discontinuity
// at the classic threshold either.
func (s *customSendState) ChooseProto(total, rndvThresh, iovMin int64) ucp.Proto {
	if s.nreg > 0 {
		if total >= iovMin {
			return ucp.ProtoRndv
		}
		return ucp.ProtoEager
	}
	if total >= rndvThresh/4 {
		return ucp.ProtoRndv
	}
	return ucp.ProtoEager
}

// packSrc streams the packed part through the handler's Pack callback.
type packSrc struct {
	h     CustomHandler
	state any
	buf   any
	count int64
	size  int64
}

func (p *packSrc) Size() int64 { return p.size }

func (p *packSrc) ReadAt(dst []byte, off int64) (int, error) {
	if rem := p.size - off; int64(len(dst)) > rem {
		dst = dst[:rem]
	}
	if len(dst) == 0 {
		return 0, nil
	}
	used, err := p.h.Pack(p.state, p.buf, p.count, off, dst)
	return int(used), err
}

// customRecvState is the receive-side binding; like the send side it
// holds its packed-part sink inside itself.
type customRecvState struct {
	unpack unpackSink
	sink   *fabric.Concat
}

// recvRegions asks the handler for the receive buffer's regions and
// checks that they hold exactly the message's region bytes.
func recvRegions(u *unpackSink, regionSize int64) (*fabric.Iov, error) {
	nreg, err := u.h.RegionCount(u.state, u.buf, u.count)
	if err != nil {
		return nil, err
	}
	regions := make([][]byte, nreg)
	if err := u.h.Regions(u.state, u.buf, u.count, regions); err != nil {
		return nil, err
	}
	iov := fabric.NewIov(regions)
	if iov.Size() != regionSize {
		return nil, fmt.Errorf("core: receive regions total %d bytes, message carries %d", iov.Size(), regionSize)
	}
	return iov, nil
}

func (c customType) RecvState(buf any, count int64, info ucp.RecvInfo) (ucp.RecvState, error) {
	h := c.d.handler
	state, err := h.State(buf, count)
	if err != nil {
		return nil, err
	}
	packed := info.Aux
	if packed < 0 || packed > info.Total {
		h.FreeState(state)
		return nil, fmt.Errorf("core: invalid packed-part length %d for %d-byte message", packed, info.Total)
	}
	regionSize := info.Total - packed
	s := &customRecvState{unpack: unpackSink{h: h, state: state, buf: buf, count: count, size: packed}}
	parts := make([]fabric.Sink, 0, 2)
	if packed > 0 {
		parts = append(parts, &s.unpack)
	}
	switch {
	case regionSize == 0:
	case c.d.inorder:
		// Region layout may depend on unpacked metadata: defer
		// resolution until the packed part has been consumed.
		parts = append(parts, &lazyRegionSink{size: regionSize, from: &s.unpack})
	default:
		iov, err := recvRegions(&s.unpack, regionSize)
		if err != nil {
			h.FreeState(state)
			return nil, err
		}
		parts = append(parts, iov)
	}
	s.sink = fabric.NewConcatSink(c.d.inorder, parts...)
	return s, nil
}

func (s *customRecvState) Size() int64 { return s.sink.Size() }
func (s *customRecvState) WriteAt(src []byte, off int64) (int, error) {
	return s.sink.WriteAt(src, off)
}
func (s *customRecvState) Window(off, n int64) ([]byte, bool) { return s.sink.Window(off, n) }
func (s *customRecvState) Sequential() bool                   { return s.sink.Sequential() }
func (s *customRecvState) Finish() error                      { return s.unpack.h.FreeState(s.unpack.state) }

// unpackSink feeds packed-part fragments to the handler's Unpack callback.
type unpackSink struct {
	h     CustomHandler
	state any
	buf   any
	count int64
	size  int64
}

func (u *unpackSink) Size() int64 { return u.size }

func (u *unpackSink) WriteAt(src []byte, off int64) (int, error) {
	if err := u.h.Unpack(u.state, u.buf, u.count, off, src); err != nil {
		return 0, err
	}
	return len(src), nil
}

// lazyRegionSink resolves receive regions on first access, which — under
// in-order delivery — happens only after the packed part was unpacked.
// It reports Sequential, so the transport never stripes across it; the
// mutex only guards the one-shot resolution against misuse.
type lazyRegionSink struct {
	size int64
	from *unpackSink // the binding whose handler names the regions

	mu  sync.Mutex
	iov *fabric.Iov
	err error
}

func (l *lazyRegionSink) materialize() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.iov == nil && l.err == nil {
		l.iov, l.err = recvRegions(l.from, l.size)
	}
	return l.err
}

func (l *lazyRegionSink) Size() int64 { return l.size }

func (l *lazyRegionSink) WriteAt(src []byte, off int64) (int, error) {
	if err := l.materialize(); err != nil {
		return 0, err
	}
	return l.iov.WriteAt(src, off)
}

// Window implements fabric.DirectSink so the rendezvous pull can scatter
// straight into the application's regions.
func (l *lazyRegionSink) Window(off, n int64) ([]byte, bool) {
	if l.materialize() != nil {
		return nil, false
	}
	return l.iov.Window(off, n)
}

// Sequential implements fabric.SequentialSink: lazy resolution is only
// sound when the packed part is consumed first.
func (l *lazyRegionSink) Sequential() bool { return true }
