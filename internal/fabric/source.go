package fabric

import (
	"fmt"
	"io"
	"sort"
)

// Source supplies message bytes by virtual offset. It is the send-side
// abstraction every datatype lowers to. This package ships the two that
// are plain memory — Bytes, one window, and Iov, a list of them; a stream
// with callback-produced ranges (a custom datatype's packed head before
// its regions) is one type in the layer that owns the callbacks, not a
// composite built here.
//
// ReadAt follows io.ReaderAt semantics restricted to the [0, Size) window:
// it fills dst with bytes starting at off and returns how many were
// produced. Implementations may return fewer bytes than requested only at
// the end of the source.
type Source interface {
	// Size returns the total number of bytes the source will produce.
	Size() int64
	// ReadAt packs up to len(dst) bytes starting at virtual offset off.
	ReadAt(dst []byte, off int64) (int, error)
}

// DirectSource is a Source whose bytes already live in memory, so the
// fabric can transfer them with zero intermediate copies.
type DirectSource interface {
	Source
	// Window returns a view of the underlying memory starting at off,
	// capped at n bytes. The view may be shorter than n when off is near a
	// region boundary; callers iterate. ok is false if the offset cannot
	// be exposed directly (then the fabric falls back to ReadAt): a source
	// may be direct over part of its range only, so callers ask per
	// window.
	Window(off, n int64) (view []byte, ok bool)
}

// Sink consumes message bytes by virtual offset: the receive-side dual of
// Source.
type Sink interface {
	// Size returns the total number of bytes the sink accepts.
	Size() int64
	// WriteAt consumes src at virtual offset off, returning the number of
	// bytes accepted. Implementations must accept all of src unless the
	// write extends past Size.
	WriteAt(src []byte, off int64) (int, error)
}

// DirectSink is a Sink backed by memory the fabric may fill in place.
type DirectSink interface {
	Sink
	// Window is the writable dual of DirectSource.Window.
	Window(off, n int64) (view []byte, ok bool)
}

// OrderedSink is implemented by sinks whose leading bytes must arrive in
// order: the custom-datatype inorder contract, which covers a type's
// packed head. Transports buffer out-of-order fragments of that range
// before delivering them, and never split or rewind it.
type OrderedSink interface {
	Sink
	// Ordered returns n: bytes [0, n) must be written in increasing
	// offset order, each once, before any byte past them. 0 means none.
	Ordered() int64
}

// SequentialSink is the whole-sink order flag that OrderedSink replaced.
//
// Deprecated: transports read only OrderedSink; Sequential is never
// called.
type SequentialSink interface {
	Sink
	// Sequential reports whether in-order delivery is required.
	Sequential() bool
}

// Bytes is a contiguous in-memory Source and Sink over a byte slice.
type Bytes []byte

// Size implements Source and Sink.
func (b Bytes) Size() int64 { return int64(len(b)) }

// ReadAt implements Source.
func (b Bytes) ReadAt(dst []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b)) {
		return 0, fmt.Errorf("fabric: Bytes.ReadAt offset %d out of range [0,%d]", off, len(b))
	}
	n := copy(dst, b[off:])
	if n < len(dst) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements Sink.
func (b Bytes) WriteAt(src []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b)) {
		return 0, fmt.Errorf("fabric: Bytes.WriteAt offset %d out of range [0,%d]", off, len(b))
	}
	n := copy(b[off:], src)
	if n < len(src) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

// Window implements DirectSource and DirectSink.
func (b Bytes) Window(off, n int64) ([]byte, bool) {
	if off < 0 || off > int64(len(b)) {
		return nil, false
	}
	end := off + n
	if end > int64(len(b)) {
		end = int64(len(b))
	}
	return b[off:end], true
}

// Iov is a scatter/gather list of memory regions presented as one virtual
// byte stream: region 0's bytes first, then region 1's, and so on. It is
// both a Source and a Sink; the direction is decided by use. Iov is how
// memory regions — a custom datatype's, or a derived datatype's long runs
// — reach the wire without packing.
//
// The region table and cumulative-offset index are immutable after
// construction, so ReadAt/WriteAt/Window are safe to call concurrently
// at disjoint offsets — the property striped rendezvous pulls rely on. A
// caller walking the list keeps its position itself (see walker).
type Iov struct {
	regions [][]byte
	// cum[i] is the virtual offset of regions[i]; cum[len(regions)] is the
	// total size.
	cum []int64
}

// NewIov builds an Iov over the given regions. The region slices are
// retained, not copied.
func NewIov(regions [][]byte) *Iov {
	v := MakeIov(regions, make([]int64, len(regions)+1))
	return &v
}

// MakeIov is NewIov building the offset index in cum, which must hold
// len(regions)+1 entries: a caller that pools its region lists pools the
// index beside them and keeps the Iov by value. Both are retained.
func MakeIov(regions [][]byte, cum []int64) Iov {
	cum = cum[:len(regions)+1]
	cum[0] = 0
	var at int64 // summed here, not reloaded from cum: no store-to-load chain
	for i, r := range regions {
		at += int64(len(r))
		cum[i+1] = at
	}
	return Iov{regions: regions, cum: cum}
}

// Regions returns the underlying region list.
func (v *Iov) Regions() [][]byte { return v.regions }

// NumRegions reports how many distinct memory regions back the stream.
func (v *Iov) NumRegions() int { return len(v.regions) }

// Size implements Source and Sink. The zero Iov is an empty stream.
func (v *Iov) Size() int64 {
	if len(v.cum) == 0 {
		return 0
	}
	return v.cum[len(v.regions)]
}

// locate returns the region index containing virtual offset off.
func (v *Iov) locate(off int64) int {
	// sort.Search finds the first region whose end exceeds off.
	return sort.Search(len(v.regions), func(i int) bool { return v.cum[i+1] > off })
}

// ReadAt implements Source, gathering across region boundaries: one
// search for the first region, then the following ones in turn.
func (v *Iov) ReadAt(dst []byte, off int64) (int, error) {
	if off < 0 || off > v.Size() {
		return 0, fmt.Errorf("fabric: Iov.ReadAt offset %d out of range [0,%d]", off, v.Size())
	}
	total := 0
	for i := v.locate(off); len(dst) > 0 && i < len(v.regions); i++ {
		n := copy(dst, v.regions[i][off-v.cum[i]:])
		dst = dst[n:]
		off += int64(n)
		total += n
	}
	if len(dst) > 0 {
		return total, io.EOF
	}
	return total, nil
}

// WriteAt implements Sink, scattering across region boundaries like
// ReadAt gathers.
func (v *Iov) WriteAt(src []byte, off int64) (int, error) {
	if off < 0 || off > v.Size() {
		return 0, fmt.Errorf("fabric: Iov.WriteAt offset %d out of range [0,%d]", off, v.Size())
	}
	total := 0
	for i := v.locate(off); len(src) > 0 && i < len(v.regions); i++ {
		n := copy(v.regions[i][off-v.cum[i]:], src)
		src = src[n:]
		off += int64(n)
		total += n
	}
	if len(src) > 0 {
		return total, io.ErrShortWrite
	}
	return total, nil
}

// Window implements DirectSource and DirectSink: it exposes the maximal
// contiguous view inside one region.
func (v *Iov) Window(off, n int64) ([]byte, bool) {
	i := v.locate(off)
	return v.at(&i, off, n)
}

// at is Window for a caller walking the list forward: *i is the region
// its previous view came from (or where locate put it), and the region
// holding off is found by stepping on from there, not by a search.
func (v *Iov) at(i *int, off, n int64) ([]byte, bool) {
	j := *i
	if j >= len(v.regions) || off < v.cum[j] {
		// The end, or a step back: not a walk.
		if off < 0 || off > v.Size() {
			return nil, false
		}
		j = v.locate(off)
	}
	for j < len(v.regions) && v.cum[j+1] <= off {
		j++ // past the region, and any empty ones after it
	}
	*i = j
	if j == len(v.regions) {
		return nil, off == v.Size()
	}
	r := v.regions[j][off-v.cum[j]:]
	if int64(len(r)) > n {
		r = r[:n]
	}
	return r, true
}

// RegionCounter is implemented by sources/sinks made of distinct memory
// regions; transports use it to pick region-aware protocols.
type RegionCounter interface {
	NumRegions() int
}
