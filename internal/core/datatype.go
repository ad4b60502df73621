package core

import (
	"fmt"
	"io"

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
// stripe large rendezvous pulls across cores; an inorder type's Pack and
// Unpack are always driven sequentially at strictly increasing offsets,
// and only its regions — named once the packed part is unpacked — are
// filled concurrently.
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

// Datatype is an MPI-level datatype: raw bytes, or a handler's — the
// application's seven callbacks (TypeCreateCustom, the paper's
// contribution) or, for a derived datatype, its compiled plan answering
// the same seven (FromDDT).
type Datatype struct {
	name    string
	esize   int64         // bytes per element for count accounting; 0: handler-defined
	elem    *ddt.Type     // derived datatypes only
	plan    *ddt.Plan     // elem's compiled pack program
	handler CustomHandler // nil: raw bytes
	inorder bool
}

// TypeBytes is the predefined MPI_BYTE-like datatype: buffers are []byte
// and count is a byte count (negative count means the whole slice).
var TypeBytes = &Datatype{name: "bytes", esize: 1}

// FromDDT wraps a derived datatype built with package ddt. Buffers are
// []byte images in the type's C layout. This is the commit point: the
// type's plan is compiled (or fetched from the plan cache) here, so every
// subsequent pack, unpack and region extraction runs compiled kernels.
func FromDDT(t *ddt.Type) *Datatype {
	d := &Datatype{name: t.Name(), esize: t.Size(), elem: t, plan: t.Plan()}
	d.handler = ddtType{d}
	return d
}

// CustomOption configures TypeCreateCustom.
type CustomOption func(*Datatype)

// WithInOrder sets the paper's inorder flag: unpack callbacks observe
// strictly increasing offsets and regions are resolved only after the
// packed part has been fully unpacked (required when the region layout
// depends on unpacked metadata, e.g. serialized dynamic objects). The
// order covers the packed part; the regions are moved like any type's.
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
	d := &Datatype{name: "custom", handler: h}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Name returns the datatype's debug name.
func (d *Datatype) Name() string { return d.name }

// DDT returns the underlying derived datatype, if any.
func (d *Datatype) DDT() *ddt.Type { return d.elem }

// elemSize returns bytes-per-element for count accounting, where defined.
func (d *Datatype) elemSize() int64 { return d.esize }

// transport lowers the MPI datatype to the transport datatype. A plain
// memory window — raw bytes, or a derived type whose layout is its packed
// form — is the transport's own contiguous datatype; everything else is a
// binding.
func (d *Datatype) transport() ucp.Datatype {
	switch {
	case d.handler == nil:
		return ucp.Contig{}
	case d.elem == nil:
		return customType{d}
	case d.elem.Contig():
		return contigDDT{d.elem}
	default:
		return ddtType{d}
	}
}

// contigDDT maps a fully contiguous derived type straight onto its
// memory: layout equals packed layout, so count elements are the first
// count*size bytes of the image and no engine is involved (Open MPI's
// contiguous fast path).
type contigDDT struct{ t *ddt.Type }

func (c contigDDT) SendState(buf any, count int64) (ucp.SendState, error) {
	if count < 0 {
		return nil, fmt.Errorf("core: negative count %d of %s", count, c.t.Name())
	}
	return ucp.Contig{}.SendState(buf, c.t.PackedSize(count))
}

func (c contigDDT) RecvState(buf any, count int64, info ucp.RecvInfo) (ucp.RecvState, error) {
	if count < 0 {
		return nil, fmt.Errorf("core: negative count %d of %s", count, c.t.Name())
	}
	return ucp.Contig{}.RecvState(buf, c.t.PackedSize(count), info)
}

// --- datatype lowering --------------------------------------------------------
//
// Every datatype that is not a plain memory window has one wire image, the
// paper's: the packed bytes its Pack callback produces (the head), then its
// memory regions, raw (the tail). One type, binding, is that image as the
// transport's send and receive state. What differs between datatypes is who
// answers the seven callbacks and where a receive learns the head's length.

// customType lowers an application handler. The sender advertises its head
// length in the message header, and the receiver's regions must hold
// exactly the rest of the message.
type customType struct{ d *Datatype }

func (c customType) SendState(buf any, count int64) (ucp.SendState, error) {
	return c.d.bind(buf, count, -1, -1)
}

func (c customType) RecvState(buf any, count int64, info ucp.RecvInfo) (ucp.RecvState, error) {
	if info.Aux < 0 || info.Aux > info.Total {
		return nil, fmt.Errorf("core: invalid packed-part length %d for %d-byte message", info.Aux, info.Total)
	}
	return c.d.bind(buf, count, info.Total, info.Aux)
}

// ddtType makes a derived datatype a client of the custom-datatype API:
// the compiled plan answers the seven callbacks. Per operation the layout
// is all head or all tail: small or fragmented layouts stream through the
// plan's pack kernels; large layouts with substantial contiguous runs are
// exposed as memory regions instead, so the rendezvous pull moves them
// zero-copy like a custom type's. The wire stream is the packed byte order
// either way, so sender and receiver choose independently, and a receive
// is sized by its own (buf, count): a shorter message is legal. (A cost
// model that routes short runs into the head and long runs into the tail
// of one message — ROADMAP's "one cost model for pack or region" —
// changes PackedSize and Regions here and nothing else.)
type ddtType struct{ d *Datatype }

func (dt ddtType) SendState(buf any, count int64) (ucp.SendState, error) {
	return dt.d.bind(buf, count, -1, -1)
}

func (dt ddtType) RecvState(buf any, count int64, _ ucp.RecvInfo) (ucp.RecvState, error) {
	return dt.d.bind(buf, count, -1, -1)
}

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

func (dt ddtType) State(buf any, _ Count) (any, error) {
	if _, ok := buf.([]byte); !ok {
		return nil, fmt.Errorf("core: derived datatype requires a []byte image, got %T", buf)
	}
	return nil, nil
}

func (dt ddtType) FreeState(any) error { return nil }

func (dt ddtType) PackedSize(_, _ any, count Count) (Count, error) {
	if dt.useRegions(count) {
		return 0, nil
	}
	return dt.d.plan.PackedSize(count), nil
}

func (dt ddtType) Pack(_, buf any, count, offset Count, dst []byte) (Count, error) {
	n, err := dt.d.plan.PackAt(buf.([]byte), count, offset, dst)
	if err == io.EOF {
		err = nil // the plan marks the stream's end; the binding knows its size
	}
	return Count(n), err
}

func (dt ddtType) Unpack(_, buf any, count, offset Count, src []byte) error {
	return dt.d.plan.UnpackAt(buf.([]byte), count, offset, src)
}

func (dt ddtType) RegionCount(_, _ any, count Count) (Count, error) {
	if !dt.useRegions(count) {
		return 0, nil
	}
	return dt.d.plan.RegionCount(count), nil
}

func (dt ddtType) Regions(_, buf any, count Count, regions [][]byte) error {
	_, err := dt.d.plan.AppendRegions(regions[:0], buf.([]byte), count)
	return err
}

// wireState is a binding as the transport sees it, in either direction.
type wireState interface {
	ucp.SendState
	ucp.RecvState
}

// binding is (buf, count) of a handler-backed datatype bound for one
// operation: the send state, the receive state and what Pack, Unpack and
// PackedSize run against. Virtual offsets [0, head) are the handler's
// Pack/Unpack; [head, size) are the handler's regions, exposed as direct
// windows so the rendezvous pull moves them without a copy.
type binding struct {
	d     *Datatype
	state any // the handler's per-operation state
	buf   any
	count Count
	head  int64 // packed-part length
	size  int64 // head + tail bytes; negative until the tail has named it

	// The tail is valid once resolved: at bind time, except for an inorder
	// receive with a head, whose regions may depend on what the head
	// carries and are asked for when its last byte has been unpacked —
	// before any byte past it can arrive (Ordered), so whoever moves the
	// tail, stripes included, reads a table that no longer changes.
	tail     fabric.Iov
	scratch  *regionScratch // pooled backing of the tail: regions and index
	resolved bool
	err      error // why the tail could not be resolved
}

// bind opens the binding of (buf, count): the one place the opening
// sequence State → PackedSize → RegionCount → Regions runs, and every
// answer is checked. total is the byte count of the message (or packed
// image) a receive was matched with, whose regions must then hold exactly
// total-head bytes; negative, the binding sizes itself. head is the
// packed-part length the sender advertised; negative, the handler is asked.
func (d *Datatype) bind(buf any, count Count, total, head int64) (wireState, error) {
	st, err := d.handler.State(buf, count)
	if err != nil {
		return nil, err
	}
	b := &binding{d: d, state: st, buf: buf, count: count, head: head, size: total}
	if head < 0 {
		b.head, err = d.handler.PackedSize(st, buf, count)
		if err == nil && (b.head < 0 || total >= 0 && b.head > total) {
			err = fmt.Errorf("core: packed size %d out of range for a %d-byte image", b.head, total)
		}
	}
	if err == nil && !(d.inorder && total >= 0 && b.head > 0) {
		err = b.resolve()
	}
	if err != nil {
		b.Finish()
		return nil, err
	}
	return b, nil
}

// resolve asks the handler for the regions, once.
func (b *binding) resolve() error {
	if b.resolved {
		return b.err
	}
	b.resolved = true
	h := b.d.handler
	nreg, err := h.RegionCount(b.state, b.buf, b.count)
	switch {
	case err != nil:
	case nreg < 0:
		err = fmt.Errorf("core: negative region count %d", nreg)
	case nreg > 0:
		b.scratch = getRegionScratch(nreg)
		if err = h.Regions(b.state, b.buf, b.count, b.scratch.regions); err == nil {
			b.tail = fabric.MakeIov(b.scratch.regions, b.scratch.cum)
		}
	}
	switch tail := b.tail.Size(); {
	case err != nil:
	case b.size < 0:
		b.size = b.head + tail
	case b.head+tail != b.size:
		err = fmt.Errorf("core: receive regions total %d bytes, message carries %d", tail, b.size-b.head)
	}
	b.err = err
	return err
}

func (b *binding) Size() int64 { return b.size }

// ReadAt implements fabric.Source: Pack fills the head's share of dst —
// called again where it underfilled — and the regions the rest.
func (b *binding) ReadAt(dst []byte, off int64) (int, error) {
	if off < 0 || off > b.size {
		return 0, fmt.Errorf("core: read offset %d out of range [0,%d]", off, b.size)
	}
	n := 0
	for n < len(dst) && off < b.head {
		frag := dst[n:]
		if rem := b.head - off; int64(len(frag)) > rem {
			frag = frag[:rem]
		}
		used, err := b.d.handler.Pack(b.state, b.buf, b.count, off, frag)
		if err == nil && (used < 0 || used > int64(len(frag))) {
			err = fmt.Errorf("core: Pack reported %d bytes for a %d-byte fragment", used, len(frag))
		}
		if err != nil {
			return n, err
		}
		if used == 0 {
			return n, io.EOF // nothing more to pack: the transport reports the short transfer
		}
		n += int(used)
		off += used
	}
	if n == len(dst) {
		return n, nil
	}
	if err := b.resolve(); err != nil {
		return n, err
	}
	m, err := b.tail.ReadAt(dst[n:], off-b.head)
	return n + m, err
}

// WriteAt implements fabric.Sink: Unpack consumes the head's share of src,
// the regions the rest.
func (b *binding) WriteAt(src []byte, off int64) (int, error) {
	if off < 0 || off > b.size {
		return 0, fmt.Errorf("core: write offset %d out of range [0,%d]", off, b.size)
	}
	n := 0
	if off < b.head {
		n = len(src)
		if rem := b.head - off; int64(n) > rem {
			n = int(rem)
		}
		if err := b.d.handler.Unpack(b.state, b.buf, b.count, off, src[:n]); err != nil {
			return 0, err
		}
		if off+int64(n) == b.head {
			if err := b.resolve(); err != nil {
				return n, err
			}
		}
	}
	if n == len(src) {
		return n, nil
	}
	if err := b.resolve(); err != nil {
		return n, err
	}
	m, err := b.tail.WriteAt(src[n:], off+int64(n)-b.head)
	return n + m, err
}

// Window implements fabric.DirectSource and DirectSink over the tail; the
// head exists only as callback output, so the fabric bounces that range
// through ReadAt/WriteAt.
func (b *binding) Window(off, n int64) ([]byte, bool) {
	if off < b.head || off > b.size || b.resolve() != nil {
		return nil, false
	}
	return b.tail.Window(off-b.head, n)
}

// RegionTail hands the tail to a transfer that walks it with a cursor of
// its own rather than through Window, region by region — and, like
// Window, only once off has reached the head's end, which an inorder
// receive's head has resolved by then.
func (b *binding) RegionTail(off int64) (int64, *fabric.Iov) {
	if off < b.head || b.resolve() != nil {
		return b.head, nil
	}
	return b.head, &b.tail
}

// Ordered implements fabric.OrderedSink: an inorder type orders its head
// — what makes resolving the tail at the head's end sound — and nothing
// past it, so its region tail is pulled like any other. A pure-pack type
// is all head.
func (b *binding) Ordered() int64 {
	if !b.d.inorder {
		return 0
	}
	return b.head
}

// Finish gives the region scratch back and frees the handler's state.
func (b *binding) Finish() error {
	if b.scratch != nil {
		b.tail = fabric.Iov{}
		putRegionScratch(b.scratch)
		b.scratch = nil
	}
	return b.d.handler.FreeState(b.state)
}

// The two answers below are where a derived datatype and a custom one
// part ways on the send side.

// Aux implements ucp.AuxProvider: a custom receiver learns the head's
// length from the message header; a derived one computes its own.
func (b *binding) Aux() int64 {
	if b.d.elem != nil {
		return 0
	}
	return b.head
}

// NumRegions implements fabric.RegionCounter. A custom type's head counts
// as a region of its own, present or not; a derived layout is its regions,
// or one packed stream.
func (b *binding) NumRegions() int {
	n := b.tail.NumRegions()
	if b.d.elem == nil || n == 0 {
		n++
	}
	return n
}
