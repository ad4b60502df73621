package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// A Ring is a single-producer/single-consumer byte ring designed to live
// in memory shared between two processes (an mmap'd file) — the eager
// lane of the SHM provider. It also works over any plain byte slice,
// which is how the unit tests drive it under the race detector: all
// cross-goroutine publication happens through sync/atomic loads and
// stores on the head/tail words, so the detector observes the same
// happens-before edges the hardware provides across processes.
//
// Memory layout (64-byte header, then the data area):
//
//	[ 0.. 8) tail   — producer cursor, free-running byte count
//	[ 8..16) head   — consumer cursor, free-running byte count
//	[16..24) label  — a word the creator names the ring by (SetLabel)
//	[24..32) cap    — data-area capacity, for attach-time validation
//	[32..40) asleep — nonzero while the consumer is blocked on its doorbell
//	[40..64) reserved
//
// Records are length-prefixed ([4-byte little-endian length][payload])
// and padded to 8-byte alignment. A record never wraps: when it does not
// fit in the space before the end of the data area, the producer writes
// a skip marker (length 0xFFFFFFFF) and continues at offset zero, so a
// consumer always sees each record as one contiguous slice.
//
// The producer publishes with a release store of tail after the record
// bytes are written; the consumer acknowledges with a release store of
// head after it is done with the record view. Neither side ever writes
// the other's cursor, so no compare-and-swap is needed anywhere.
//
// Doorbell: a consumer that finds the ring empty stores asleep=1 and
// checks the ring once more before it blocks (Arm); a producer swaps the
// word back to 0 after Commit and rings the consumer if it held 1 (Bell).
// Go's atomics are sequentially consistent, so of the two store-then-load
// sequences at least one observes the other's store: either the consumer
// sees the new tail or the producer sees the flag.
//
// What is read from the shared words is validated before it indexes the
// data area: a peer killed mid-update surfaces as ErrCorrupt, never as a
// slice-bounds fault in the survivor.
type Ring struct {
	data []byte
	cap  uint64

	tail   *uint64
	head   *uint64
	asleep *uint64
	label  *uint64

	// Consumer-local: padded span of the record Next last returned, so
	// Advance never re-reads a length the peer could have changed.
	nextSpan uint64

	// Producer-local reservation state (Reserve/Commit).
	resOff  uint64 // data offset of the reserved record's length word
	resSkip uint64 // bytes consumed by a skip marker before the record
	resMax  int    // payload bytes reserved
	resOpen bool
}

// RingHeaderSize is the byte overhead of the ring's shared header.
const RingHeaderSize = 64

const ringSkipMarker = 0xFFFFFFFF

// ErrRingTooSmall reports a backing buffer that cannot hold the header
// plus a power-of-two data area.
var ErrRingTooSmall = errors.New("fabric: ring buffer too small")

// RingMem returns an 8-byte-aligned in-process backing buffer for a ring
// with the given data capacity (rounded up to a power of two). Tests and
// single-process use; cross-process rings attach to an mmap'd file
// instead, which is page-aligned by construction.
func RingMem(capacity int) []byte {
	c := ringCapFor(capacity)
	words := make([]uint64, (RingHeaderSize+int(c))/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
}

// ringCapFor rounds capacity up to a power of two, minimum 1 KiB.
func ringCapFor(capacity int) uint64 {
	c := uint64(1024)
	for c < uint64(capacity) {
		c <<= 1
	}
	return c
}

// AttachRing lays a Ring over mem. With init set the header is written
// fresh (the creator side); otherwise the header is validated against
// the buffer size (the attaching side). mem must be 8-byte aligned and
// hold RingHeaderSize plus a power-of-two data area.
func AttachRing(mem []byte, init bool) (*Ring, error) {
	if len(mem) < RingHeaderSize+1024 {
		return nil, ErrRingTooSmall
	}
	if uintptr(unsafe.Pointer(&mem[0]))%8 != 0 {
		return nil, errors.New("fabric: ring buffer not 8-byte aligned")
	}
	capacity := uint64(len(mem) - RingHeaderSize)
	if capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("fabric: ring data area %d is not a power of two", capacity)
	}
	r := &Ring{
		data:   mem[RingHeaderSize:],
		cap:    capacity,
		tail:   (*uint64)(unsafe.Pointer(&mem[0])),
		head:   (*uint64)(unsafe.Pointer(&mem[8])),
		asleep: (*uint64)(unsafe.Pointer(&mem[32])),
		label:  (*uint64)(unsafe.Pointer(&mem[16])),
	}
	capWord := (*uint64)(unsafe.Pointer(&mem[24]))
	if init {
		atomic.StoreUint64(r.tail, 0)
		atomic.StoreUint64(r.head, 0)
		atomic.StoreUint64(r.asleep, 0)
		atomic.StoreUint64(r.label, 0)
		atomic.StoreUint64(capWord, capacity)
	} else if got := atomic.LoadUint64(capWord); got != capacity {
		return nil, fmt.Errorf("fabric: ring capacity mismatch: header says %d, buffer holds %d", got, capacity)
	}
	return r, nil
}

// Cap returns the data-area capacity in bytes.
func (r *Ring) Cap() int { return int(r.cap) }

// SetLabel names the ring in its shared header, so a side that attaches by
// file name can tell which ring the file holds; Label reads it (0: none).
func (r *Ring) SetLabel(v uint64) { atomic.StoreUint64(r.label, v) }
func (r *Ring) Label() uint64     { return atomic.LoadUint64(r.label) }

// recordSpan returns the padded byte span of a record with an n-byte
// payload.
func recordSpan(n int) uint64 { return uint64(4+n+7) &^ 7 }

// cursors loads both cursors and checks them against each other: either
// word may hold garbage once the peer died mid-update.
func (r *Ring) cursors() (head, tail uint64, err error) {
	head, tail = atomic.LoadUint64(r.head), atomic.LoadUint64(r.tail)
	if (head|tail)&7 != 0 || tail-head > r.cap {
		return 0, 0, fmt.Errorf("%w: ring cursors head=%d tail=%d over %d bytes", ErrCorrupt, head, tail, r.cap)
	}
	return head, tail, nil
}

// Reserve claims a contiguous n-byte payload area in the ring, returning
// a slice the caller fills before Commit. ok is false when the ring lacks
// space (the caller waits for the consumer to free some); err is
// ErrCorrupt when the shared cursors are inconsistent. Only one
// reservation may be open at a time — the ring is single-producer.
func (r *Ring) Reserve(n int) (buf []byte, ok bool, err error) {
	if r.resOpen {
		panic("fabric: Ring.Reserve with a reservation already open")
	}
	span := recordSpan(n)
	if span > r.cap/2 {
		return nil, false, nil
	}
	head, tail, err := r.cursors()
	if err != nil {
		return nil, false, err
	}
	pos := tail & (r.cap - 1)
	skip := uint64(0)
	if pos+span > r.cap {
		// The record would straddle the end of the data area: skip to the
		// start. The skipped span counts against the free space.
		skip = r.cap - pos
	}
	if tail+skip+span-head > r.cap {
		return nil, false, nil
	}
	if skip > 0 {
		binary.LittleEndian.PutUint32(r.data[pos:], ringSkipMarker)
		pos = 0
	}
	r.resOff = pos
	r.resSkip = skip
	r.resMax = n
	r.resOpen = true
	return r.data[pos+4 : pos+4+uint64(n)], true, nil
}

// Commit publishes the open reservation with its final payload length
// (n may be less than reserved when the filler packed partially). The
// producer calls Bell next.
func (r *Ring) Commit(n int) {
	if !r.resOpen || n < 0 || n > r.resMax {
		panic("fabric: Ring.Commit without a matching Reserve")
	}
	r.resOpen = false
	binary.LittleEndian.PutUint32(r.data[r.resOff:], uint32(n))
	tail := atomic.LoadUint64(r.tail)
	// Release-store: everything written above happens-before a consumer
	// that observes the new tail.
	atomic.StoreUint64(r.tail, tail+r.resSkip+recordSpan(n))
}

// Abort cancels the open reservation without publishing anything.
func (r *Ring) Abort() { r.resOpen = false }

// Next returns a view of the next unconsumed record, or ok=false when
// the ring is empty. The view aliases ring memory and is valid only
// until Advance; consumers copy out before advancing. A length word that
// does not describe a record inside the published span is ErrCorrupt.
func (r *Ring) Next() (rec []byte, ok bool, err error) {
	head, tail, err := r.cursors() // acquire: record bytes below tail are visible
	if err != nil {
		return nil, false, err
	}
	for head != tail {
		pos := head & (r.cap - 1)
		l := binary.LittleEndian.Uint32(r.data[pos:])
		skip := l == ringSkipMarker
		span := recordSpan(int(l))
		if skip {
			span = r.cap - pos
		}
		// A producer never skips from offset zero (every record fits there)
		// and never publishes a record above cap/2 or across the end.
		if span > tail-head || (skip && pos == 0) || (!skip && (span > r.cap/2 || pos+span > r.cap)) {
			return nil, false, fmt.Errorf("%w: ring record length %#x at offset %d (head=%d tail=%d)", ErrCorrupt, l, pos, head, tail)
		}
		if !skip {
			r.nextSpan = span
			return r.data[pos+4 : pos+4+uint64(l)], true, nil
		}
		head += span
		// Acknowledge the skip immediately so the producer regains the
		// space even if no record follows yet.
		atomic.StoreUint64(r.head, head)
	}
	return nil, false, nil
}

// Advance releases the record last returned by Next back to the
// producer.
func (r *Ring) Advance() {
	atomic.StoreUint64(r.head, atomic.LoadUint64(r.head)+r.nextSpan)
	r.nextSpan = 0
}

// Arm declares the consumer asleep and reports whether it may block on
// its doorbell; false withdraws the declaration because a record was
// published in the meantime.
func (r *Ring) Arm() bool {
	atomic.StoreUint64(r.asleep, 1)
	if r.Empty() {
		return true
	}
	r.Disarm()
	return false
}

// Disarm withdraws Arm's declaration once the consumer polls again.
func (r *Ring) Disarm() { atomic.StoreUint64(r.asleep, 0) }

// Asleep reports whether the consumer's declaration stands.
func (r *Ring) Asleep() bool { return atomic.LoadUint64(r.asleep) != 0 }

// Bell is the producer's half of the doorbell, called after Commit: it
// reports whether the consumer declared itself asleep (the caller must
// wake it) and clears the declaration, so one sleep costs one bell.
func (r *Ring) Bell() bool {
	return atomic.LoadUint64(r.asleep) != 0 && atomic.SwapUint64(r.asleep, 0) != 0
}

// Empty reports whether every published record has been consumed.
func (r *Ring) Empty() bool {
	return atomic.LoadUint64(r.head) == atomic.LoadUint64(r.tail)
}
