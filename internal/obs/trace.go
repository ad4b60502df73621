package obs

import (
	"io"
	"sync"
	"time"
)

// EventKind identifies one step of a message lifecycle.
type EventKind uint8

// Message lifecycle steps, in the order a message typically visits them:
// a receive is posted (EvPost) or a send starts (EvSend, Arg = chosen
// protocol), the message matches a receive (EvMatch, Arg = 1 for a posted
// hit / 0 for an unexpected hit), a rendezvous pull fans out (EvStripes,
// Arg = segment count), the janitor resends (EvRexmit, Arg = attempt),
// and the request completes (EvComplete, Arg = 0 ok / 1 failed) or times
// out (EvTimeout). EvControl is not a message step: it is a control-plane
// step (a connection installed or dropped, a communicator revoked, a
// recovery move) recorded into Control, named by the event's Note.
const (
	EvPost EventKind = 1 + iota
	EvSend
	EvMatch
	EvStripes
	EvRexmit
	EvComplete
	EvTimeout
	EvControl
)

func (k EventKind) String() string {
	switch k {
	case EvPost:
		return "post"
	case EvSend:
		return "send"
	case EvMatch:
		return "match"
	case EvStripes:
		return "stripes"
	case EvRexmit:
		return "rexmit"
	case EvComplete:
		return "complete"
	case EvTimeout:
		return "timeout"
	case EvControl:
		return "control"
	}
	return "unknown"
}

// MarshalJSON emits the kind's name so trace dumps read without a legend.
// Only the dump path pays for this — recording stores the raw byte.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the name form produced by MarshalJSON.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	for c := EvPost; c <= EvControl; c++ {
		if string(b) == `"`+c.String()+`"` {
			*k = c
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one fixed-size trace record. Fields are value types except
// Note, which only control events set; a message event leaves it empty,
// so recording one is a struct copy into the preallocated ring — no heap
// allocation.
type Event struct {
	Nanos int64     `json:"ns"`   // wall-clock nanoseconds (time.Now().UnixNano())
	Kind  EventKind `json:"kind"` // lifecycle step
	Rank  int32     `json:"rank"` // observing rank
	Peer  int32     `json:"peer"` // remote rank (-1 when unknown)
	MsgID uint64    `json:"msg"`  // transport message id (0 when not yet assigned)
	Tag   uint64    `json:"tag"`  // transport matching tag
	Size  int64     `json:"size"` // message payload bytes
	Arg   int64     `json:"arg"`  // kind-specific detail (see EventKind docs)
	// Note names a control step, with an error's text where it has one.
	Note string `json:"note,omitempty"`
}

// Ring is a bounded in-memory trace buffer: the last cap(events) records
// survive, older ones are overwritten. A mutex (not atomics) guards the
// slots so snapshots never observe torn events under the race detector;
// the critical section is one struct copy and Record never allocates.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total records ever written; next%len(buf) is the write slot
}

// NewRing returns a ring holding the most recent capacity events
// (rounded up to a power of two, minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Record appends one event, overwriting the oldest when full. Safe to
// call on a nil ring (tracing disabled).
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next&uint64(len(r.buf)-1)] = ev
	r.next++
	r.mu.Unlock()
}

// Len returns how many events are currently held (at most the capacity).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten before they could be
// read.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.buf)) {
		return 0
	}
	return int64(r.next - uint64(len(r.buf)))
}

// Events returns the held events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	start := uint64(0)
	count := r.next
	if r.next > n {
		start = r.next - n
		count = n
	}
	out := make([]Event, 0, count)
	for i := start; i < r.next; i++ {
		out = append(out, r.buf[i&(n-1)])
	}
	return out
}

// WriteJSON dumps the held events oldest-first as indented JSON.
func (r *Ring) WriteJSON(w io.Writer) error {
	return writeSortedJSON(w, r.Events())
}

// Control is the process-wide, always-on ring of the last 1 024
// control-plane events: connection installs, drops and redials,
// revocations, recovery steps. It is kept apart from every Observer's
// trace so a burst of message events cannot evict the one connection drop
// that explains a hang, and it needs no Observer, so those steps are
// recorded in every world.
var Control = NewRing(1024)

// Ctl records one control-plane step of rank into Control: peer is the
// remote rank (-1 when none), note names the step and arg carries its
// number (a drop site, an epoch, a count).
func Ctl(rank, peer int, note string, arg int64) {
	Control.Record(Event{Nanos: time.Now().UnixNano(), Kind: EvControl, Rank: int32(rank), Peer: int32(peer), Arg: arg, Note: note})
}
