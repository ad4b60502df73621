package fabric

import (
	"sync"
	"sync/atomic"
)

// bufPool recycles wire packets together with their buffers, in
// FragSize-multiple size classes: class i holds packets owning a buffer of
// capacity i*frag. Exact-FragSize buffers (the common eager-fragment and
// bounce-buffer case) land in class 1; oversized ones — gather sends
// larger than one fragment, TCP frame payloads — are rounded up to the
// next fragment multiple instead of being thrown to the GC after every
// message; class 0 is packets without a payload (acks, control headers).
// One pool operation fetches a packet ready to fill and one, in
// Packet.Release, gives it back.
//
// The pool tracks its checked-out count: every pooled get increments
// outstanding and the matching Release decrements it, so a quiesced
// fabric reads zero. Leak checks (obs.LeakSnapshot) diff the counter
// across a workload — a packet dropped without Release, or an error path
// that forgets its staging buffer, shows up as a stuck positive level
// rather than silent GC pressure.
type bufPool struct {
	frag        int
	classes     []sync.Pool // of *Packet
	outstanding atomic.Int64
}

// newBufPool sizes the class table to cover every legal fragment
// ([0, MaxFragSize] bytes); larger requests fall back to plain make and
// are not recycled.
func newBufPool(frag int) *bufPool {
	if frag <= 0 {
		frag = DefaultFragSize
	}
	return &bufPool{frag: frag, classes: make([]sync.Pool, (MaxFragSize+frag-1)/frag+1)}
}

// get returns a packet whose Payload is n bytes of a buffer of the next
// class size up, for the caller to fill (or to use as scratch) and
// Release.
func (p *bufPool) get(n int) *Packet {
	ci := (n + p.frag - 1) / p.frag
	if ci >= len(p.classes) {
		return &Packet{Payload: make([]byte, n)}
	}
	p.outstanding.Add(1)
	pkt, _ := p.classes[ci].Get().(*Packet)
	if pkt == nil {
		pkt = &Packet{buf: make([]byte, ci*p.frag)}
	}
	pkt.pool = p
	pkt.Payload = pkt.buf[:n]
	return pkt
}

// Outstanding returns the number of pooled packets currently checked
// out (gets minus Releases).
func (p *bufPool) Outstanding() int64 { return p.outstanding.Load() }
