package fabric

import (
	"io"
	"sync"
)

// bouncePool holds the staging buffers pull lends itself when both ends of
// a range are callback-driven and the caller passed none: every self-send
// of a derived or custom datatype to another.
var bouncePool = sync.Pool{New: func() any { return new([DefaultFragSize]byte) }}

// Transfer moves n bytes from src[off:] into sink[sinkOff:] without
// touching the wire, using direct windows when both ends allow it. It is
// the self-send path, the loopback analogue of a Get, and how a datatype
// is packed into or unpacked from a plain buffer. Without a bounce buffer
// a window is as long as the two ends allow — packing into a plain buffer
// is one callback — and one is borrowed from a pool only if a range turns
// out to be callback-driven on both ends.
func Transfer(src Source, off int64, sink Sink, sinkOff, n int64, bounce []byte) error {
	return pull(src, off, sink, sinkOff, n, bounce)
}

// pull moves n bytes from src[off:] into sink[sinkOff:]: the rendezvous
// (RDMA-read analogue) path, shared by the providers, and Transfer.
//
// Each end is read through a walker. A region list — an *Iov, or the
// region tail of a binding once the walk has reached it — is walked with a
// cursor the walker holds: one search where the walk enters the list, then
// one index step a region, so a window costs a constant, not log(regions).
// Where both ends are walked lists, copyRegions moves region to region
// inside one turn of the loop; the window steps below would move the same
// bytes, at about twice the cost a region. Any other end answers Window
// per window, and an end with no window at the walk's offset (a packed
// head, a callback-driven datatype) is served by ReadAt/WriteAt, so one
// stream can mix the two (a custom datatype's wire image is a packed part
// followed by raw regions).
//
// Copy accounting:
//   - direct source + direct sink: one copy per byte, region to region;
//   - one generic end: the generic callback reads from / writes into the
//     other end's window directly, still one pass over the bytes;
//   - both generic: bounce through a staging buffer, two passes.
//
// bounce bounds the window size per iteration; providers pass a pooled
// wire buffer, Transfer may pass none.
func pull(src Source, off int64, sink Sink, sinkOff, n int64, bounce []byte) error {
	sw, kw := walk(src, off), walk(sink, sinkOff)
	for n > 0 {
		if sw.tail != nil && kw.tail != nil {
			// Both ends are past their heads: region lists from here on.
			if m := copyRegions(&sw, off, &kw, sinkOff, n); m > 0 {
				off += m
				sinkOff += m
				n -= m
				continue
			}
		}
		step := n
		if len(bounce) > 0 && step > int64(len(bounce)) {
			step = int64(len(bounce))
		}
		if sv := sw.window(off, step); len(sv) > 0 {
			var m int
			if dv := kw.window(sinkOff, int64(len(sv))); len(dv) > 0 {
				m = copy(dv, sv)
			} else {
				// Generic sink unpacks straight from the source window.
				var err error
				m, err = sink.WriteAt(sv, sinkOff)
				if err != nil {
					return err
				}
			}
			if m == 0 {
				return ErrShortTransfer
			}
			off += int64(m)
			sinkOff += int64(m)
			n -= int64(m)
			continue
		}
		var (
			m   int
			err error
		)
		switch dv := kw.window(sinkOff, step); {
		case len(dv) > 0:
			// Generic source packs straight into the destination window.
			m, err = src.ReadAt(dv, off)
			if err == io.EOF {
				err = nil
			}
			if err == nil && m == 0 {
				err = ErrShortTransfer
			}
		case len(bounce) > 0:
			// Both ends are callback-driven: stage through the bounce
			// buffer (pack copy + unpack copy).
			m, err = stage(src, off, sink, sinkOff, bounce[:step])
		default:
			lent := bouncePool.Get().(*[DefaultFragSize]byte)
			m, err = stage(src, off, sink, sinkOff, lent[:min(step, DefaultFragSize)])
			bouncePool.Put(lent)
		}
		if err != nil {
			return err
		}
		off += int64(m)
		sinkOff += int64(m)
		n -= int64(m)
	}
	return nil
}

// stage moves one window between two callback-driven ends through buf and
// returns the bytes moved. The sink must take all the source produced.
func stage(src Source, off int64, sink Sink, sinkOff int64, buf []byte) (int, error) {
	m, err := src.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if m == 0 {
		return 0, ErrShortTransfer
	}
	w, err := sink.WriteAt(buf[:m], sinkOff)
	if err != nil {
		return 0, err
	}
	if w != m {
		return 0, ErrShortTransfer
	}
	return m, nil
}

// windowed is the Window half of DirectSource and DirectSink.
type windowed interface {
	Window(off, n int64) (view []byte, ok bool)
}

// regionTail is implemented by an end whose bytes from base on are an
// Iov's — a datatype binding: its packed head, then its regions. A walker
// takes the list over once and walks it itself instead of asking Window
// region by region. RegionTail always reports base, and the tail only once
// off has reached it (an end that names its regions late does so then)
// and the regions could be named. Before base such an end has no window.
type regionTail interface {
	RegionTail(off int64) (base int64, tail *Iov)
}

// walker reads one end of a transfer forward from where it was opened. It
// is held by the caller, never shared: the Iov it walks stays immutable,
// so concurrent walks over disjoint stripes need no lock.
type walker struct {
	w    windowed   // an end that offers only Window
	rt   regionTail // an end whose tail is not handed over yet
	tail *Iov       // the list being walked: the end's bytes from base on
	base int64
	i    int // the cursor: the tail region of the last view
}

// walk opens a walker over x, a Source or a Sink, at offset off.
func walk(x any, off int64) walker {
	switch v := x.(type) {
	case *Iov:
		return walker{tail: v, i: v.locate(off)}
	case regionTail:
		return walker{rt: v}
	case windowed:
		return walker{w: v}
	}
	return walker{}
}

// direct reports whether the end has memory to walk at all.
func (k *walker) direct() bool { return k.w != nil || k.rt != nil || k.tail != nil }

// window returns the end's memory at off, at most n bytes of it and never
// across a region boundary; empty where there is no window, and the caller
// goes through ReadAt/WriteAt instead. Offsets must not decrease from one
// call to the next (one that does costs a search, not a wrong answer).
func (k *walker) window(off, n int64) []byte {
	if k.tail != nil {
		v, _ := k.tail.at(&k.i, off-k.base, n)
		return v
	}
	return k.ask(off, n)
}

// ask is window before a tail is walked: the end's own Window, or its
// region tail, taken over once off has reached it.
func (k *walker) ask(off, n int64) []byte {
	if k.w != nil {
		v, _ := k.w.Window(off, n)
		return v
	}
	if k.rt == nil || off < k.base {
		return nil
	}
	base, tail := k.rt.RegionTail(off)
	if k.base = base; tail == nil {
		return nil
	}
	k.rt, k.tail, k.i = nil, tail, tail.locate(off-base)
	return k.window(off, n)
}

// copyRegions moves up to n bytes from s's list at off into k's at
// sinkOff, each region slice taken once and min(len(src), len(dst))
// copied at a time, and returns how many it moved: fewer only where a list
// ends, none where either offset is outside its list. Both cursors are
// left at the regions the last bytes went through. It is the window loop
// of pull with the region indices kept in registers: for 8-byte regions on
// both ends a region costs 6–7 ns here and 12–13 ns through two walker
// windows.
func copyRegions(s *walker, off int64, k *walker, sinkOff, n int64) int64 {
	sv, _ := s.tail.at(&s.i, off-s.base, n)
	dv, _ := k.tail.at(&k.i, sinkOff-k.base, n)
	sr, dr := s.tail.regions, k.tail.regions
	si, di := s.i, k.i
	var moved int64
	for len(sv) > 0 && len(dv) > 0 {
		if rem := n - moved; int64(len(sv)) > rem {
			sv = sv[:rem]
		}
		c := copy(dv, sv)
		if moved += int64(c); moved == n {
			break
		}
		sv, dv = sv[c:], dv[c:]
		for len(sv) == 0 && si+1 < len(sr) {
			si++
			sv = sr[si]
		}
		for len(dv) == 0 && di+1 < len(dr) {
			di++
			dv = dr[di]
		}
	}
	s.i, k.i = si, di
	return moved
}

// headLeft is how many bytes from off on come before the end's region
// tail, as far as the walker has learned: 0 when it does not know, or
// when off is in the tail.
func (k *walker) headLeft(off int64) int64 {
	if k.rt != nil && k.base > off {
		return k.base - off
	}
	return 0
}
