package ucp

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// ErrCanceled is reported by requests removed with CancelRecv.
var ErrCanceled = errors.New("ucp: request canceled")

// Request tracks one in-flight send or receive. A receive request is also
// its own receive operation: once matched it carries the delivery state
// the progress goroutine, the pullers, the janitor and failure notification
// work on, and a send request what is kept until the peer answers, so the
// worker's active, pulls and sends tables point at requests and an
// operation lives exactly as long as the request the caller holds.
type Request struct {
	w      *Worker
	isSend bool

	// Matching criteria (receives and blocked probes).
	tag  Tag
	mask Tag
	from int // -1 means any source

	// probe, when set, makes this a blocked Probe (or, probe.claimed, Mprobe)
	// waiting in the posted queue: the arrival that matches it fills the
	// message in and completes the request instead of delivering to it.
	probe *Message

	dt     Datatype
	buf    any
	count  int64
	contig contigState // the datatype state of a Contig transfer (see sendState)

	// deadline, when non-zero, is enforced by the worker's janitor: an
	// incomplete request past it fails with ErrTimeout.
	deadline time.Time

	// postSeq is the global posting-order stamp (see matchTable).
	postSeq uint64

	// Observability (set only when the worker's obs layer is enabled).
	obsStart time.Time // post/send time, for the completion-latency histogram
	msgID    uint64    // transport message id, once known (0 for unmatched receives)
	key      uint64    // rendezvous: the key the sender registered its source under

	// Completion. complete runs its body once: it writes err and the status
	// fields, then publishes them through completed, so a caller that saw it
	// set reads them without taking mu. What a waiter sleeps on exists only
	// once somebody has to sleep: wg carries a count from the first Wait
	// that found the request pending until complete drops it, and done is
	// made by Done (or by WaitTimeout finding the request pending). mu
	// orders both against complete.
	mu        sync.Mutex
	completed atomic.Bool
	blocked   bool // wg holds a count for complete to drop
	wg        sync.WaitGroup
	done      chan struct{}
	err       error

	// Completion status. A matched receive holds the message's source, tag
	// and aux word here from the match on.
	srcRank int
	srcTag  Tag
	total   int64
	aux0    int64

	// Delivery state of a matched receive, guarded by mu so the goroutine
	// that matched the message can drain buffered fragments while the
	// progress goroutine routes live ones.
	msgTotal  int64 // incoming message size
	tracked   bool  // registered in the worker's active table
	wireEager bool  // eager message from a remote rank (ack/dedup applies)
	reliable  bool  // sender expects an ack on completion
	discard   bool  // stop delivering; drain remaining fragments
	finished  bool
	start     time.Time // match time, for the unpack_ns histogram (zero when obs is off)
	sink      RecvState // nil when sink construction failed
	received  int64
	failure   error // first failure
	// ordered is the sink's fabric.OrderedSink answer: bytes [0, ordered) are
	// delivered in order, each once — an eager message's fragments all of
	// them, through next and pending (see sequential); a pull's by one Get
	// that is never retried or split.
	ordered int64
	next    int64
	pending map[int64]*fabric.Packet
	// seen dedups retransmitted fragments for non-sequential sinks:
	// offset → longest payload accepted there (a truncated fragment may
	// be superseded by its full retransmission).
	seen map[int64]int64

	// A matched rendezvous or self receive, whose bytes jobs on the pullers
	// move (see job): failure above is the first error among its Gets.
	selfFrom *Request // self-send: the sending request, whose send.src is the source
	jobsLeft int32    // Get jobs not yet done
	striped  bool     // they are stripes: a failed one is worth a sequential re-pull

	// send is what a send that outlives its Send call keeps (see sendOp). Not
	// embedded: that cost every request 104 bytes and eager bursts 9 %.
	send *sendOp
}

// sequential reports whether an eager receive's fragments are delivered
// in offset order: all of them, when any leading bytes must be.
func (r *Request) sequential() bool { return r.ordered > 0 }

func newRequest(w *Worker) *Request {
	return &Request{w: w, srcRank: -1}
}

// complete finishes the request exactly once.
func (r *Request) complete(from int, tag Tag, total, aux0 int64, err error) {
	r.mu.Lock()
	if r.completed.Load() {
		r.mu.Unlock()
		return
	}
	r.srcRank = from
	r.srcTag = tag
	r.total = total
	r.aux0 = aux0
	r.err = err
	r.completed.Store(true)
	if r.done != nil {
		close(r.done)
	}
	blocked := r.blocked
	r.mu.Unlock()
	if blocked {
		r.wg.Done()
	}
	if o := r.w.obs; o != nil && r.probe == nil { // a probe moves no message: nothing to measure
		if !r.obsStart.IsZero() {
			o.completeNS.Observe(time.Since(r.obsStart).Nanoseconds())
		}
		o.sizeBytes.Observe(total)
		status := int64(0)
		if err != nil {
			status = 1
		}
		kind := obs.EvComplete
		if errors.Is(err, ErrTimeout) {
			kind = obs.EvTimeout
		}
		r.w.ev(kind, from, r.msgID, tag, total, status)
	}
}

// fail marks a matched receive failed and finished. It reports whether
// the caller is the one that finished it and so owes the finishRecv; a
// receive somebody else already finished is left alone, because its
// finisher reads these fields without the lock.
func (r *Request) fail(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return false
	}
	r.finished = true
	r.discard = true
	if r.failure == nil {
		r.failure = err
	}
	return true
}

// Wait blocks until the request completes and returns its error.
func (r *Request) Wait() error {
	if r.completed.Load() {
		return r.err
	}
	r.mu.Lock()
	if !r.completed.Load() && !r.blocked {
		r.blocked = true
		r.wg.Add(1)
	}
	r.mu.Unlock()
	r.wg.Wait()
	return r.err
}

// WaitTimeout blocks until the request completes or d elapses, returning
// ErrTimeout in the latter case. The request itself is not canceled — a
// late completion still lands and can be observed with Test or Wait —
// so callers get a bounded wait even when the peer's link is down.
func (r *Request) WaitTimeout(d time.Duration) error {
	if r.completed.Load() {
		return r.err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.Done():
		return r.err
	case <-t.C:
		return ErrTimeout
	}
}

// Test reports whether the request has completed, without blocking.
func (r *Request) Test() (bool, error) {
	if !r.completed.Load() {
		return false, nil
	}
	return true, r.err
}

// Done exposes a completion channel for select-based progress. The channel
// is made on the first call; Wait and Test never need one.
func (r *Request) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done == nil {
		r.done = make(chan struct{})
		if r.completed.Load() {
			close(r.done)
		}
	}
	return r.done
}

// Status returns the source rank, matched tag and transferred byte count.
// Valid only after completion.
func (r *Request) Status() (from int, tag Tag, n int64) {
	return r.srcRank, r.srcTag, r.total
}

// Aux returns the sender-provided auxiliary word (the point-to-point layer
// uses it to carry the packed-part length of custom datatypes). Valid only
// after completion.
func (r *Request) Aux() int64 { return r.aux0 }

// WaitAll waits on every request and returns the first error encountered.
// After a failure the remaining requests are not waited blindly — a batch
// partner may be dead and without a deadline its receives would never
// complete. Still-unmatched receives are canceled; everything else
// (matched receives, in-flight sends) is drained so no request outlives
// the call with its buffers still in use.
func WaitAll(reqs ...*Request) error {
	for i, r := range reqs {
		if r == nil {
			continue
		}
		if err := r.Wait(); err != nil {
			for _, rr := range reqs[i+1:] {
				if rr == nil {
					continue
				}
				if !rr.isSend && rr.w.CancelRecv(rr) {
					continue
				}
				_ = rr.Wait()
			}
			return err
		}
	}
	return nil
}
