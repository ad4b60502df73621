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

// pull moves n bytes from src[off:] into sink[sinkOff:], using direct
// memory windows on both ends when available. This is the core of the
// rendezvous (RDMA-read analogue) path and is shared by providers.
//
// Direct access is re-evaluated per window because one stream can mix
// direct and callback-backed ranges (a custom datatype's wire image is a
// packed part followed by raw regions).
//
// Copy accounting:
//   - direct source + direct sink: one copy per byte;
//   - one generic end: the generic callback reads from / writes into the
//     other end's window directly, still one pass over the bytes;
//   - both generic: bounce through a staging buffer, two passes.
//
// bounce bounds the window size per iteration; providers pass a pooled
// wire buffer, Transfer may pass none.
func pull(src Source, off int64, sink Sink, sinkOff, n int64, bounce []byte) error {
	ds, _ := src.(DirectSource)
	dk, _ := sink.(DirectSink)
	for n > 0 {
		step := n
		if len(bounce) > 0 && step > int64(len(bounce)) {
			step = int64(len(bounce))
		}
		var (
			sv     []byte
			dv     []byte
			srcOK  bool
			sinkOK bool
		)
		if ds != nil {
			sv, srcOK = ds.Window(off, step)
			if srcOK && len(sv) == 0 {
				srcOK = false
			}
		}
		switch {
		case srcOK:
			if dk != nil {
				dv, sinkOK = dk.Window(sinkOff, int64(len(sv)))
				if sinkOK && len(dv) == 0 {
					sinkOK = false
				}
			}
			var m int
			if sinkOK {
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
		default:
			if dk != nil {
				dv, sinkOK = dk.Window(sinkOff, step)
				if sinkOK && len(dv) == 0 {
					sinkOK = false
				}
			}
			if sinkOK {
				// Generic source packs straight into the destination window.
				m, err := src.ReadAt(dv, off)
				if err != nil && err != io.EOF {
					return err
				}
				if m == 0 {
					return ErrShortTransfer
				}
				off += int64(m)
				sinkOff += int64(m)
				n -= int64(m)
				continue
			}
			// Both ends are callback-driven: stage through the bounce
			// buffer (pack copy + unpack copy).
			var (
				m   int
				err error
			)
			if len(bounce) > 0 {
				m, err = stage(src, off, sink, sinkOff, bounce[:step])
			} else {
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
