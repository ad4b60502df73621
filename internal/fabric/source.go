package fabric

import (
	"fmt"
	"io"
	"sort"
)

// Source supplies message bytes by virtual offset. It is the send-side
// abstraction every datatype lowers to: contiguous buffers, iovec region
// lists and callback-packed (generic) types all implement it.
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
	// be exposed directly (then the fabric falls back to ReadAt).
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

// SequentialSink is implemented by sinks that must observe bytes in
// strictly increasing offset order (the custom-datatype inorder contract).
// Transports buffer out-of-order fragments before delivering to such sinks.
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
// custom-datatype memory regions reach the wire without packing.
//
// The region table and cumulative-offset index are immutable after
// construction, so ReadAt/WriteAt/Window are safe to call concurrently
// at disjoint offsets — the property striped rendezvous pulls rely on.
type Iov struct {
	regions [][]byte
	// cum[i] is the virtual offset of regions[i]; cum[len(regions)] is the
	// total size.
	cum []int64
}

// NewIov builds an Iov over the given regions. The region slices are
// retained, not copied.
func NewIov(regions [][]byte) *Iov {
	cum := make([]int64, len(regions)+1)
	for i, r := range regions {
		cum[i+1] = cum[i] + int64(len(r))
	}
	return &Iov{regions: regions, cum: cum}
}

// Regions returns the underlying region list.
func (v *Iov) Regions() [][]byte { return v.regions }

// NumRegions reports how many distinct memory regions back the stream.
func (v *Iov) NumRegions() int { return len(v.regions) }

// Size implements Source and Sink.
func (v *Iov) Size() int64 { return v.cum[len(v.regions)] }

// locate returns the region index containing virtual offset off.
func (v *Iov) locate(off int64) int {
	// sort.Search finds the first region whose end exceeds off.
	return sort.Search(len(v.regions), func(i int) bool { return v.cum[i+1] > off })
}

// ReadAt implements Source, gathering across region boundaries.
func (v *Iov) ReadAt(dst []byte, off int64) (int, error) {
	if off < 0 || off > v.Size() {
		return 0, fmt.Errorf("fabric: Iov.ReadAt offset %d out of range [0,%d]", off, v.Size())
	}
	total := 0
	for len(dst) > 0 && off < v.Size() {
		i := v.locate(off)
		r := v.regions[i][off-v.cum[i]:]
		n := copy(dst, r)
		dst = dst[n:]
		off += int64(n)
		total += n
	}
	if len(dst) > 0 {
		return total, io.EOF
	}
	return total, nil
}

// WriteAt implements Sink, scattering across region boundaries.
func (v *Iov) WriteAt(src []byte, off int64) (int, error) {
	if off < 0 || off > v.Size() {
		return 0, fmt.Errorf("fabric: Iov.WriteAt offset %d out of range [0,%d]", off, v.Size())
	}
	total := 0
	for len(src) > 0 && off < v.Size() {
		i := v.locate(off)
		r := v.regions[i][off-v.cum[i]:]
		n := copy(r, src)
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
	if off < 0 || off > v.Size() {
		return nil, false
	}
	if off == v.Size() {
		return nil, true
	}
	i := v.locate(off)
	r := v.regions[i][off-v.cum[i]:]
	if int64(len(r)) > n {
		r = r[:n]
	}
	return r, true
}

// concatPart is one segment of a Concat stream.
type concatPart struct {
	start int64
	src   Source
	sink  Sink
}

// Concat composes several Sources (or Sinks) into one virtual byte stream.
// The point-to-point engine uses it to lay out a custom-datatype message as
// the packed part followed by the raw memory regions.
//
// Like Iov, the part table is immutable after construction and the
// offset→part lookup is a binary search over it, so concurrent access at
// disjoint offsets is lock-free as long as the parts themselves allow it
// (sequential composites are exempt: the transport never stripes them).
type Concat struct {
	parts      []concatPart
	total      int64
	sequential bool
	two        [2]concatPart // backs parts for the usual packed-part-plus-regions pair
}

// NewConcatSource composes sources end to end.
func NewConcatSource(srcs ...Source) *Concat {
	c := &Concat{}
	c.parts = c.two[:0]
	for _, s := range srcs {
		c.parts = append(c.parts, concatPart{start: c.total, src: s})
		c.total += s.Size()
	}
	return c
}

// NewConcatSink composes sinks end to end. If sequential is true the
// composite requires in-order delivery (needed when a later part's layout
// is only known after an earlier part was consumed).
func NewConcatSink(sequential bool, sinks ...Sink) *Concat {
	c := &Concat{sequential: sequential}
	c.parts = c.two[:0]
	for _, s := range sinks {
		c.parts = append(c.parts, concatPart{start: c.total, sink: s})
		c.total += s.Size()
	}
	return c
}

// Size implements Source and Sink.
func (c *Concat) Size() int64 { return c.total }

// RegionCounter is implemented by sources/sinks made of distinct memory
// regions; transports use it to pick region-aware protocols.
type RegionCounter interface {
	NumRegions() int
}

// NumRegions sums the region counts of the parts (1 for parts that do not
// report a count).
func (c *Concat) NumRegions() int {
	n := 0
	for _, p := range c.parts {
		var v any = p.src
		if v == nil {
			v = p.sink
		}
		if rc, ok := v.(RegionCounter); ok {
			n += rc.NumRegions()
		} else {
			n++
		}
	}
	return n
}

// Sequential implements SequentialSink.
func (c *Concat) Sequential() bool {
	if c.sequential {
		return true
	}
	for _, p := range c.parts {
		if ss, ok := p.sink.(SequentialSink); ok && ss.Sequential() {
			return true
		}
	}
	return false
}

// find returns the part containing virtual offset off.
func (c *Concat) find(off int64) int {
	return sort.Search(len(c.parts), func(i int) bool {
		end := c.total
		if i+1 < len(c.parts) {
			end = c.parts[i+1].start
		}
		return end > off
	})
}

// ReadAt implements Source across part boundaries.
func (c *Concat) ReadAt(dst []byte, off int64) (int, error) {
	if off < 0 || off > c.total {
		return 0, fmt.Errorf("fabric: Concat.ReadAt offset %d out of range [0,%d]", off, c.total)
	}
	total := 0
	for len(dst) > 0 && off < c.total {
		i := c.find(off)
		p := c.parts[i]
		rel := off - p.start
		want := int64(len(dst))
		if rem := p.src.Size() - rel; rem < want {
			want = rem
		}
		n, err := p.src.ReadAt(dst[:want], rel)
		total += n
		dst = dst[n:]
		off += int64(n)
		if err != nil && err != io.EOF {
			return total, err
		}
		if n == 0 {
			break
		}
	}
	if len(dst) > 0 {
		return total, io.EOF
	}
	return total, nil
}

// WriteAt implements Sink across part boundaries.
func (c *Concat) WriteAt(src []byte, off int64) (int, error) {
	if off < 0 || off > c.total {
		return 0, fmt.Errorf("fabric: Concat.WriteAt offset %d out of range [0,%d]", off, c.total)
	}
	total := 0
	for len(src) > 0 && off < c.total {
		i := c.find(off)
		p := c.parts[i]
		rel := off - p.start
		want := int64(len(src))
		if rem := p.sink.Size() - rel; rem < want {
			want = rem
		}
		n, err := p.sink.WriteAt(src[:want], rel)
		total += n
		src = src[n:]
		off += int64(n)
		if err != nil {
			return total, err
		}
		if n == 0 {
			break
		}
	}
	if len(src) > 0 {
		return total, io.ErrShortWrite
	}
	return total, nil
}

// Window implements DirectSource/DirectSink where the covering part is
// itself direct; otherwise it reports ok=false so the fabric bounces that
// range through ReadAt/WriteAt.
func (c *Concat) Window(off, n int64) ([]byte, bool) {
	if off < 0 || off > c.total {
		return nil, false
	}
	if off == c.total {
		return nil, true
	}
	i := c.find(off)
	p := c.parts[i]
	rel := off - p.start
	var (
		size int64
		win  []byte
		ok   bool
	)
	if p.src != nil {
		size = p.src.Size()
		ds, isDirect := p.src.(DirectSource)
		if !isDirect {
			return nil, false
		}
		if n > size-rel {
			n = size - rel
		}
		win, ok = ds.Window(rel, n)
	} else {
		size = p.sink.Size()
		ds, isDirect := p.sink.(DirectSink)
		if !isDirect {
			return nil, false
		}
		if n > size-rel {
			n = size - rel
		}
		win, ok = ds.Window(rel, n)
	}
	return win, ok
}
