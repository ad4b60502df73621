// Package workloads defines the datatypes of the paper's Rust evaluation
// (Section V.A) together with every transfer method benchmarked against
// them:
//
//   - double-vec          — Vec<Vec<i32>>, a dynamic list of heap vectors
//     (Listing: "double-vector type"); custom datatype with a packed
//     length header plus one region per subvector, versus manual packing
//     into a single buffer, versus a raw-bytes baseline;
//   - struct-vec          — Listing 6: three i32s, an alignment gap, an
//     f64, and a 2048-element i32 array; packed fields + one region;
//   - struct-simple       — Listing 7: the same without the array (packing
//     only, exercising the gap);
//   - struct-simple-no-gap — Listing 8: no gap, fully contiguous.
//
// Struct buffers are C-layout byte images (see package layout), so the
// derived-datatype baseline, the manual packing loops and the custom
// handlers all move exactly the bytes the paper's #[repr(C)] Rust structs
// contain.
package workloads

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/derive"
	"mpicd/internal/layout"
)

// Count aliases the MPI count type.
type Count = core.Count

// ---------------------------------------------------------------------------
// struct layouts (Listings 6-8)

// StructVec layout constants: {a,b,c: i32 @ 0,4,8; gap @ 12; d: f64 @ 16;
// data: [2048]i32 @ 24}.
const (
	StructVecDataLen = 2048
	StructVecExtent  = 24 + 4*StructVecDataLen
	StructVecPacked  = 12 + 8 + 4*StructVecDataLen // gap elided
	structVecFields  = 20                          // a,b,c,d packed bytes
)

// StructSimple layout: {a,b,c: i32 @ 0,4,8; gap @ 12; d: f64 @ 16}.
const (
	StructSimpleExtent = 24
	StructSimplePacked = 20
)

// StructSimpleNoGap layout: {a,b: i32 @ 0,4; c: f64 @ 8}.
const (
	StructSimpleNoGapExtent = 16
	StructSimpleNoGapPacked = 16
)

// Go-native mirrors of the paper structs. Go's alignment rules reproduce
// the #[repr(C)] layouts exactly (the f64 after three i32s forces the
// same 4-byte gap at offset 12), so deriving a datatype from these with
// package derive yields the very layouts the constants above describe —
// workloads_test pins the offsets and the derived/hand-built plan
// sharing.
type (
	// StructVecGo mirrors Listing 6: scalars, gap, and the big array.
	StructVecGo struct {
		A, B, C int32
		D       float64
		Data    [StructVecDataLen]int32
	}
	// StructSimpleGo mirrors Listing 7: the gapped struct.
	StructSimpleGo struct {
		A, B, C int32
		D       float64
	}
	// StructSimpleNoGapGo mirrors Listing 8: fully contiguous.
	StructSimpleNoGapGo struct {
		A, B int32
		C    float64
	}
)

// StructVecDerived returns the datatype derived from the Go mirror of
// struct-vec — transfer-equivalent to StructVecType() and sharing its
// compiled plan.
func StructVecDerived() *ddt.Type { return derive.MustTypeOf[StructVecGo]() }

// StructSimpleDerived returns the derived struct-simple datatype.
func StructSimpleDerived() *ddt.Type { return derive.MustTypeOf[StructSimpleGo]() }

// StructSimpleNoGapDerived returns the derived no-gap datatype.
func StructSimpleNoGapDerived() *ddt.Type { return derive.MustTypeOf[StructSimpleNoGapGo]() }

// StructVecType returns the derived datatype for struct-vec (what RSMPI's
// derive macro would build for Listing 6).
func StructVecType() *ddt.Type {
	t, err := ddt.Struct(
		[]int{3, 1, StructVecDataLen},
		[]int64{0, 16, 24},
		[]*ddt.Type{ddt.Int32, ddt.Float64, ddt.Int32},
	)
	if err != nil {
		panic(err)
	}
	return t
}

// StructSimpleType returns the derived datatype for struct-simple
// (Listing 7): the interior gap forces two runs per element.
func StructSimpleType() *ddt.Type {
	t, err := ddt.Struct([]int{3, 1}, []int64{0, 16}, []*ddt.Type{ddt.Int32, ddt.Float64})
	if err != nil {
		panic(err)
	}
	return t
}

// StructSimpleNoGapType returns the derived datatype for
// struct-simple-no-gap (Listing 8): fully contiguous.
func StructSimpleNoGapType() *ddt.Type {
	t, err := ddt.Struct([]int{2, 1}, []int64{0, 8}, []*ddt.Type{ddt.Int32, ddt.Float64})
	if err != nil {
		panic(err)
	}
	return t
}

// FillStructVec writes count deterministic struct-vec elements into image.
func FillStructVec(image []byte, count int, seed int32) {
	for e := 0; e < count; e++ {
		base := e * StructVecExtent
		layout.PutI32(image, base+0, seed+int32(3*e))
		layout.PutI32(image, base+4, seed+int32(3*e+1))
		layout.PutI32(image, base+8, seed+int32(3*e+2))
		layout.PutF64(image, base+16, float64(seed)+float64(e)/16)
		for i := 0; i < StructVecDataLen; i++ {
			layout.PutI32(image, base+24+4*i, seed^int32(e*StructVecDataLen+i))
		}
	}
}

// FillStructSimple writes count deterministic struct-simple elements.
func FillStructSimple(image []byte, count int, seed int32) {
	for e := 0; e < count; e++ {
		base := e * StructSimpleExtent
		layout.PutI32(image, base+0, seed+int32(3*e))
		layout.PutI32(image, base+4, seed+int32(3*e+1))
		layout.PutI32(image, base+8, seed+int32(3*e+2))
		layout.PutF64(image, base+16, float64(seed)+float64(e)/16)
	}
}

// FillStructSimpleNoGap writes count deterministic no-gap elements.
func FillStructSimpleNoGap(image []byte, count int, seed int32) {
	for e := 0; e < count; e++ {
		base := e * StructSimpleNoGapExtent
		layout.PutI32(image, base+0, seed+int32(2*e))
		layout.PutI32(image, base+4, seed+int32(2*e+1))
		layout.PutF64(image, base+8, float64(seed)+float64(e)/16)
	}
}

// ---------------------------------------------------------------------------
// manual packing loops (the paper's "manual-pack"/"packed" method)

// PackStructVec packs count elements field by field, eliding the gap —
// the hand-written loop an application would use before sending bytes.
func PackStructVec(image []byte, count int, dst []byte) int {
	w := 0
	for e := 0; e < count; e++ {
		base := e * StructVecExtent
		w += copy(dst[w:], image[base:base+12])    // a, b, c
		w += copy(dst[w:], image[base+16:base+24]) // d
		w += copy(dst[w:], image[base+24:base+24+4*StructVecDataLen])
	}
	return w
}

// UnpackStructVec reverses PackStructVec.
func UnpackStructVec(src []byte, image []byte, count int) {
	r := 0
	for e := 0; e < count; e++ {
		base := e * StructVecExtent
		r += copy(image[base:base+12], src[r:r+12])
		r += copy(image[base+16:base+24], src[r:r+8])
		r += copy(image[base+24:base+24+4*StructVecDataLen], src[r:r+4*StructVecDataLen])
	}
}

// PackStructSimple packs count struct-simple elements (20 bytes each).
func PackStructSimple(image []byte, count int, dst []byte) int {
	w := 0
	for e := 0; e < count; e++ {
		base := e * StructSimpleExtent
		w += copy(dst[w:], image[base:base+12])
		w += copy(dst[w:], image[base+16:base+24])
	}
	return w
}

// UnpackStructSimple reverses PackStructSimple.
func UnpackStructSimple(src []byte, image []byte, count int) {
	r := 0
	for e := 0; e < count; e++ {
		base := e * StructSimpleExtent
		r += copy(image[base:base+12], src[r:r+12])
		r += copy(image[base+16:base+24], src[r:r+8])
	}
}

// PackStructSimpleNoGap is a single copy: the type is contiguous.
func PackStructSimpleNoGap(image []byte, count int, dst []byte) int {
	return copy(dst, image[:count*StructSimpleNoGapExtent])
}

// UnpackStructSimpleNoGap reverses PackStructSimpleNoGap.
func UnpackStructSimpleNoGap(src []byte, image []byte, count int) {
	copy(image[:count*StructSimpleNoGapExtent], src)
}

// ---------------------------------------------------------------------------
// custom datatype handlers

// structImageHandler is the custom handler shared by the three struct
// types: it packs `packedFields` bytes per element from the runs before
// the data array, and exposes `regionLen` bytes per element as a region.
// Buffers are []byte images.
type structImageHandler struct {
	extent    int   // bytes per element in memory
	fieldRuns []run // packed field runs within one element
	fieldSize int   // sum of fieldRuns lengths
	regionOff int   // offset of the region within an element (-1: none)
	regionLen int
}

type run struct{ off, len int }

func (h *structImageHandler) image(buf any, count Count) ([]byte, error) {
	b, ok := buf.([]byte)
	if !ok {
		return nil, fmt.Errorf("workloads: expected []byte image, got %T", buf)
	}
	if int64(len(b)) < count*int64(h.extent) {
		return nil, fmt.Errorf("workloads: image of %d bytes cannot hold %d elements", len(b), count)
	}
	return b, nil
}

func (h *structImageHandler) State(buf any, count Count) (any, error) {
	return h.image(buf, count)
}

func (h *structImageHandler) FreeState(any) error { return nil }

func (h *structImageHandler) PackedSize(_, _ any, count Count) (Count, error) {
	return count * Count(h.fieldSize), nil
}

// Pack is specialized the way an application's own pack callback would
// be: whole elements move with fixed-size copies (the compiler lowers
// constant-length copies to wide moves), and only the fragment-boundary
// elements take the generic run walk. The paper's Rust handlers are
// per-type trait implementations with exactly this character.
func (h *structImageHandler) Pack(state, _ any, count, offset Count, dst []byte) (Count, error) {
	img := state.([]byte)
	total := count * Count(h.fieldSize)
	if rem := total - offset; Count(len(dst)) > rem {
		dst = dst[:rem]
	}
	var used Count
	// Leading partial element.
	if within := int(offset) % h.fieldSize; within != 0 {
		used += h.packSlow(img, offset, dst)
	}
	// Bulk: whole elements with fixed 12+8-byte field copies.
	if h.fieldSize == 20 && len(h.fieldRuns) == 2 {
		e := int(offset+used) / 20
		base := e * h.extent
		for used+20 <= Count(len(dst)) {
			w := used
			copy(dst[w:w+12], img[base:base+12])
			copy(dst[w+12:w+20], img[base+16:base+24])
			used += 20
			base += h.extent
		}
	}
	// Trailing partial element (or non-20-byte layouts entirely).
	for used < Count(len(dst)) {
		n := h.packSlow(img, offset+used, dst[used:])
		if n == 0 {
			break
		}
		used += n
	}
	return used, nil
}

// packSlow packs at most one element's worth of bytes at offset.
func (h *structImageHandler) packSlow(img []byte, offset Count, dst []byte) Count {
	e := int(offset) / h.fieldSize
	within := int(offset) % h.fieldSize
	base := e * h.extent
	var used Count
	for _, r := range h.fieldRuns {
		if within >= r.len {
			within -= r.len
			continue
		}
		n := copy(dst[used:], img[base+r.off+within:base+r.off+r.len])
		used += Count(n)
		within = 0
		if used == Count(len(dst)) {
			break
		}
	}
	return used
}

func (h *structImageHandler) Unpack(state, _ any, count, offset Count, src []byte) error {
	img := state.([]byte)
	if offset+Count(len(src)) > count*Count(h.fieldSize) {
		return errors.New("workloads: unpack past end")
	}
	// Leading partial element.
	if within := int(offset) % h.fieldSize; within != 0 {
		n := h.unpackSlow(img, offset, src)
		src = src[n:]
		offset += n
	}
	// Bulk whole elements.
	if h.fieldSize == 20 && len(h.fieldRuns) == 2 {
		base := int(offset) / 20 * h.extent
		for len(src) >= 20 {
			copy(img[base:base+12], src[:12])
			copy(img[base+16:base+24], src[12:20])
			src = src[20:]
			offset += 20
			base += h.extent
		}
	}
	for len(src) > 0 {
		n := h.unpackSlow(img, offset, src)
		if n == 0 {
			break
		}
		src = src[n:]
		offset += n
	}
	return nil
}

// unpackSlow consumes at most one element's worth of bytes at offset.
func (h *structImageHandler) unpackSlow(img []byte, offset Count, src []byte) Count {
	e := int(offset) / h.fieldSize
	within := int(offset) % h.fieldSize
	base := e * h.extent
	var used Count
	for _, r := range h.fieldRuns {
		if len(src) == 0 {
			break
		}
		if within >= r.len {
			within -= r.len
			continue
		}
		n := copy(img[base+r.off+within:base+r.off+r.len], src)
		src = src[n:]
		used += Count(n)
		within = 0
	}
	return used
}

func (h *structImageHandler) RegionCount(_, _ any, count Count) (Count, error) {
	if h.regionOff < 0 {
		return 0, nil
	}
	return count, nil
}

func (h *structImageHandler) Regions(state, _ any, count Count, regions [][]byte) error {
	if h.regionOff < 0 {
		return nil
	}
	img := state.([]byte)
	for e := Count(0); e < count; e++ {
		base := int(e) * h.extent
		regions[e] = img[base+h.regionOff : base+h.regionOff+h.regionLen]
	}
	return nil
}

// StructVecCustom returns the custom datatype for struct-vec: fields
// packed, data array exposed as a region per element. This is how the
// paper's custom method treats the type "as if it contained a vector".
func StructVecCustom() *core.Datatype {
	return core.TypeCreateCustom(&structImageHandler{
		extent:    StructVecExtent,
		fieldRuns: []run{{0, 12}, {16, 8}},
		fieldSize: structVecFields,
		regionOff: 24,
		regionLen: 4 * StructVecDataLen,
	}, core.WithName("struct-vec-custom"))
}

// StructSimpleCustom returns the custom datatype for struct-simple: pure
// packing, no regions.
func StructSimpleCustom() *core.Datatype {
	return core.TypeCreateCustom(&structImageHandler{
		extent:    StructSimpleExtent,
		fieldRuns: []run{{0, 12}, {16, 8}},
		fieldSize: StructSimplePacked,
		regionOff: -1,
	}, core.WithName("struct-simple-custom"))
}

// StructSimpleNoGapCustom returns the custom datatype for the contiguous
// no-gap struct: a single region per buffer, no packing at all.
func StructSimpleNoGapCustom() *core.Datatype {
	return core.TypeCreateCustom(&noGapHandler{}, core.WithName("struct-simple-no-gap-custom"))
}

// noGapHandler exposes the whole contiguous image as one region.
type noGapHandler struct{}

func (noGapHandler) State(buf any, count Count) (any, error) {
	b, ok := buf.([]byte)
	if !ok {
		return nil, fmt.Errorf("workloads: expected []byte image, got %T", buf)
	}
	need := count * StructSimpleNoGapExtent
	if int64(len(b)) < need {
		return nil, fmt.Errorf("workloads: image of %d bytes cannot hold %d elements", len(b), count)
	}
	return b[:need], nil
}

func (noGapHandler) FreeState(any) error                         { return nil }
func (noGapHandler) PackedSize(_, _ any, _ Count) (Count, error) { return 0, nil }
func (noGapHandler) Pack(_, _ any, _, _ Count, _ []byte) (Count, error) {
	return 0, nil
}
func (noGapHandler) Unpack(_, _ any, _, _ Count, _ []byte) error  { return nil }
func (noGapHandler) RegionCount(_, _ any, _ Count) (Count, error) { return 1, nil }
func (noGapHandler) Regions(state, _ any, _ Count, regions [][]byte) error {
	regions[0] = state.([]byte)
	return nil
}

// ---------------------------------------------------------------------------
// double-vec (Vec<Vec<i32>>)

// NewDoubleVec builds a double-vector of total bytes split into subvectors
// of subvec bytes each (the paper's sub-vector length); a total smaller
// than subvec yields a single subvector of the full size.
func NewDoubleVec(total, subvec int, seed byte) [][]byte {
	if total <= subvec {
		v := make([]byte, total)
		fillBytes(v, seed)
		return [][]byte{v}
	}
	n := total / subvec
	vecs := make([][]byte, 0, n+1)
	remaining := total
	for remaining > 0 {
		sz := subvec
		if sz > remaining {
			sz = remaining
		}
		v := make([]byte, sz)
		fillBytes(v, seed+byte(len(vecs)))
		vecs = append(vecs, v)
		remaining -= sz
	}
	return vecs
}

func fillBytes(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
}

// DoubleVecBytes returns the total payload bytes of a double-vector.
func DoubleVecBytes(v [][]byte) int {
	n := 0
	for _, s := range v {
		n += len(s)
	}
	return n
}

// doubleVecHandler is the custom handler for [][]byte on the send side and
// *[][]byte on the receive side. The packed part (the head) carries the
// sub-vector count and lengths; each sub-vector is a memory region.
// Because the receive-side region layout is only known once the head is
// unpacked, the type requires in-order delivery (the paper's inorder
// flag): the head arrives in order, and its last byte names the regions,
// which are then moved like any type's — striped, when large. A receive
// lands in the buffer it was given when that already has the shape the
// head names (dvReusable), as json.Unmarshal reuses a slice: the old
// sub-vectors are overwritten. Otherwise it gives the sub-vectors one new
// backing array. Either way each sub-vector is capacity-clipped, so an
// append to one cannot write into its neighbour.
type doubleVecHandler struct{}

type dvState struct {
	vecs [][]byte  // send side (or materialized receive)
	out  *[][]byte // receive side destination
	head []byte    // receive: the head bytes unpacked so far
	hbuf *[]byte   // receive: the dvHeads buffer head is staged in
	size Count     // receive: the head's length, once its count is in
}

// dvHeads recycles the buffers receives stage their heads in.
var dvHeads = sync.Pool{New: func() any { return new([]byte) }}

func dvHeaderSize(n int) Count { return Count(8 * (n + 1)) }

const (
	// dvMaxCount is the largest sub-vector count whose head length is an
	// int64.
	dvMaxCount = 1<<60 - 2
	// dvMaxBytes bounds the payload a received head may name: lengths
	// past it are a corrupt head, refused before anything is allocated. A
	// head naming less, but more than the host can give, still fails in
	// the receive's one allocation.
	dvMaxBytes = 1 << 40
)

func (doubleVecHandler) State(buf any, _ Count) (any, error) {
	switch v := buf.(type) {
	case [][]byte:
		return &dvState{vecs: v}, nil
	case *[][]byte:
		return &dvState{out: v}, nil
	default:
		return nil, fmt.Errorf("workloads: double-vec buffer must be [][]byte or *[][]byte, got %T", buf)
	}
}

func (doubleVecHandler) FreeState(any) error { return nil }

// sendVecs returns the sub-vectors that are the state's regions: a send's,
// a receive's once its head named them, or — before a receive has
// unpacked anything — the ones its buffer holds.
func (s *dvState) sendVecs() ([][]byte, error) {
	switch {
	case s.vecs != nil:
		return s.vecs, nil
	case len(s.head) > 0:
		return nil, fmt.Errorf("workloads: double-vec head cut short at %d bytes", len(s.head))
	case s.out != nil && *s.out != nil:
		return *s.out, nil
	}
	return nil, errors.New("workloads: double-vec buffer holds no data to pack")
}

func (doubleVecHandler) PackedSize(state, _ any, _ Count) (Count, error) {
	vecs, err := state.(*dvState).sendVecs()
	if err != nil {
		return 0, err
	}
	return dvHeaderSize(len(vecs)), nil
}

// Pack writes the window [offset, offset+len(dst)) of the head — the
// count, then each sub-vector's length, little-endian words — into dst.
func (doubleVecHandler) Pack(state, _ any, _, offset Count, dst []byte) (Count, error) {
	vecs, err := state.(*dvState).sendVecs()
	if err != nil {
		return 0, err
	}
	end := min(offset+Count(len(dst)), dvHeaderSize(len(vecs)))
	var word [8]byte
	n := Count(0)
	for off := offset; off < end; {
		v := int64(len(vecs))
		if i := off / 8; i > 0 {
			v = int64(len(vecs[i-1]))
		}
		layout.PutI64(word[:], 0, v)
		k := Count(copy(dst[n:end-offset], word[off%8:]))
		n += k
		off += k
	}
	return n, nil
}

// Unpack stages the head in a recycled buffer; its last byte sizes the
// sub-vectors, in the old buffer where it fits.
func (doubleVecHandler) Unpack(state, _ any, _, offset Count, src []byte) error {
	s := state.(*dvState)
	if s.out == nil {
		return errors.New("workloads: unpack into a send-side double-vec")
	}
	if offset != Count(len(s.head)) || s.vecs != nil {
		return fmt.Errorf("workloads: double-vec head bytes at %d out of order", offset)
	}
	if s.hbuf == nil {
		s.hbuf = dvHeads.Get().(*[]byte)
		s.head = (*s.hbuf)[:0]
	}
	s.head = append(s.head, src...)
	if s.size == 0 && len(s.head) >= 8 {
		n := layout.I64(s.head, 0)
		if n < 0 || n > dvMaxCount {
			return fmt.Errorf("workloads: corrupt double-vec count %d", n)
		}
		s.size = dvHeaderSize(int(n))
	}
	switch got := Count(len(s.head)); {
	case s.size == 0 || got < s.size:
		return nil
	case got > s.size:
		return fmt.Errorf("workloads: double-vec head of %d bytes runs past its %d", got, s.size)
	}
	n := int(layout.I64(s.head, 0))
	total, err := dvPayload(s.head, n, dvMaxBytes)
	if err != nil {
		return err
	}
	if old := *s.out; dvReusable(old, s.head, n) {
		for i, v := range old {
			old[i] = v[:len(v):len(v)]
		}
		s.vecs = old
	} else {
		s.vecs = dvCut(s.head, n, make([]byte, total))
		*s.out = s.vecs
	}
	*s.hbuf = s.head[:0]
	dvHeads.Put(s.hbuf)
	s.head, s.hbuf = nil, nil
	return nil
}

// dvReusable reports whether old already has the shape head names: n
// sub-vectors of the named lengths whose non-empty ones are one
// contiguous, in-order cut — what a previous receive's dvCut leaves — so
// no two of them share a byte and a receive can land in them. A nil old
// never has a shape, so an empty message into nil still yields a non-nil
// result.
func dvReusable(old [][]byte, head []byte, n int) bool {
	if old == nil || len(old) != n {
		return false
	}
	var next uintptr // where the next non-empty sub-vector must begin
	for i, v := range old {
		l := layout.I64(head, 8*(i+1))
		if int64(len(v)) != l {
			return false
		}
		if l == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
		if next != 0 && p != next {
			return false
		}
		next = p + uintptr(l)
	}
	return true
}

// dvPayload checks the n lengths a head names and returns their sum, which
// may not pass limit.
func dvPayload(head []byte, n int, limit int64) (int64, error) {
	total := int64(0)
	for i := 1; i <= n; i++ {
		l := layout.I64(head, 8*i)
		if l < 0 || l > limit-total {
			return 0, fmt.Errorf("workloads: corrupt double-vec length %d of sub-vector %d", l, i-1)
		}
		total += l
	}
	return total, nil
}

// dvCut hands backing out as the n sub-vectors whose lengths head names
// (dvPayload: they sum to len(backing)), each capacity-clipped. The result
// is never nil.
func dvCut(head []byte, n int, backing []byte) [][]byte {
	vecs := make([][]byte, n)
	o := int64(0)
	for i := range vecs {
		l := layout.I64(head, 8*(i+1))
		vecs[i] = backing[o : o+l : o+l]
		o += l
	}
	return vecs
}

func (doubleVecHandler) RegionCount(state, _ any, _ Count) (Count, error) {
	s := state.(*dvState)
	vecs, err := s.sendVecs()
	if err != nil {
		return 0, err
	}
	return Count(len(vecs)), nil
}

func (doubleVecHandler) Regions(state, _ any, _ Count, regions [][]byte) error {
	s := state.(*dvState)
	vecs, err := s.sendVecs()
	if err != nil {
		return err
	}
	for i := range regions {
		regions[i] = vecs[i]
	}
	return nil
}

// DoubleVecCustom returns the custom datatype for Vec<Vec<i32>>.
func DoubleVecCustom() *core.Datatype {
	return core.TypeCreateCustom(doubleVecHandler{}, core.WithInOrder(), core.WithName("double-vec-custom"))
}

// PackDoubleVec serializes a double-vector into one buffer: the manual-
// pack baseline. Layout matches the custom wire image (header + data).
func PackDoubleVec(vecs [][]byte, dst []byte) int {
	layout.PutI64(dst, 0, int64(len(vecs)))
	w := int(dvHeaderSize(len(vecs)))
	for i, v := range vecs {
		layout.PutI64(dst, 8*(i+1), int64(len(v)))
	}
	for _, v := range vecs {
		w += copy(dst[w:], v)
	}
	return w
}

// PackedDoubleVecSize returns the manual-pack buffer size for vecs.
func PackedDoubleVecSize(vecs [][]byte) int {
	return int(dvHeaderSize(len(vecs))) + DoubleVecBytes(vecs)
}

// UnpackDoubleVec reverses PackDoubleVec, giving the subvectors one
// backing array, cut as a custom receive cuts it.
func UnpackDoubleVec(src []byte) ([][]byte, error) {
	if len(src) < 8 {
		return nil, errors.New("workloads: double-vec buffer too short")
	}
	n := layout.I64(src, 0)
	if n < 0 || n > int64(len(src))/8-1 {
		return nil, errors.New("workloads: corrupt double-vec header")
	}
	r := int(dvHeaderSize(int(n)))
	total, err := dvPayload(src, int(n), int64(len(src)-r))
	if err != nil {
		return nil, err
	}
	backing := make([]byte, total)
	copy(backing, src[r:])
	return dvCut(src, int(n), backing), nil
}
