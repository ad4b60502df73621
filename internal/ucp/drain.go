package ucp

// The drain at Close: MPI_Finalize's guarantee for unacked eager sends on a
// link whose peers are separate processes (fabric.Link.CrossProcess). Such a
// send completes once the NIC took it, which can be before the peer's
// progress loop did; if this process then exits, the peer may learn of the
// exit first — and a death verdict fails every message from the rank not yet
// whole, and every receive still posted for one. So each worker counts the
// data frames (eager fragments, RTS, FIN, abort) it hands the NIC for each
// peer, and the progress loop counts the ones it takes in from each peer. At
// Close the worker sends every live peer it sent frames to a bye carrying
// its count, through the ack pump, and waits — closeDrainBound at most —
// until each has answered, died, or lost its link; a peer answers a bye once
// its loop has taken in that many frames. What arrived whole stays
// receivable after a verdict (DeclarePeerFailed), so once the answer is in,
// this process's exit cannot overtake its last frames. Frames, not a marker
// ordered behind them, because a provider may carry one peer's frames on
// more than one channel (SHM: single frames on the ring, multi-fragment
// messages on the socket). A Reliable worker does not send byes — what it
// sent completes on the peer's ack — but counts and answers them like any
// worker on such a link. In-process workers have no drain state at all.

import (
	"slices"
	"sync/atomic"
	"time"

	"mpicd/internal/fabric"
)

const (
	kindBye    fabric.Kind = 14 // Close's drain request (the frames sent to the peer in Aux0)
	kindByeAck fabric.Kind = 15 // answer to a bye: that many frames were taken in
)

// closeDrainBound is the longest Close waits for the answers to its byes.
var closeDrainBound = 3 * time.Second

// drainState is a worker's drain bookkeeping, one slot a peer.
type drainState struct {
	sent  []atomic.Int64 // data frames handed the NIC
	taken []atomic.Int64 // data frames the progress loop took in
	owed  []atomic.Int64 // a bye's count the loop has yet to reach (0: none)
	done  []atomic.Bool  // this worker's bye was answered, or cannot be: the link broke
	wake  chan struct{}  // capacity 1: some done flag was set, or a peer died
}

func newDrainState(n int) *drainState {
	return &drainState{
		sent:  make([]atomic.Int64, n),
		taken: make([]atomic.Int64, n),
		owed:  make([]atomic.Int64, n),
		done:  make([]atomic.Bool, n),
		wake:  make(chan struct{}, 1),
	}
}

// dataFrame reports whether a frame of kind k is one the drain counts: every
// frame of a message's protocol, not acks, heartbeats or the drain's own.
func dataFrame(k fabric.Kind) bool {
	return k == kindEager || k == kindRTS || k == kindFIN || k == kindAbort
}

func (d *drainState) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// settle marks peer's bye answered, or unanswerable.
func (d *drainState) settle(peer int) {
	if peer >= 0 && peer < len(d.done) {
		d.done[peer].Store(true)
		d.nudge()
	}
}

// sentFrame counts a data frame handed the NIC for dst.
func (w *Worker) sentFrame(dst int) {
	if d := w.drain; d != nil {
		d.sent[dst].Add(1)
	}
}

// tookFrame counts a data frame the progress loop took in from a peer and
// answers the peer's bye once the count reaches it. Under w.progress.
func (w *Worker) tookFrame(from int) {
	d := w.drain
	if from < 0 || from >= len(d.taken) {
		return
	}
	n := d.taken[from].Add(1)
	if o := d.owed[from].Load(); o > 0 && n >= o {
		d.owed[from].Store(0)
		w.queueAnswer(answer{to: from, kind: kindByeAck})
	}
}

// handleBye answers a bye now if the loop has taken in as many frames from
// the peer as it says it sent, or when tookFrame gets there; a byeAck
// settles this worker's own bye. A count no frame can reach is never
// answered; the closing peer's bound covers that.
func (w *Worker) handleBye(pkt *fabric.Packet) {
	from, kind, n := pkt.From, pkt.Hdr.Kind, pkt.Hdr.Aux0
	pkt.Release()
	d := w.drain
	switch {
	case d == nil || from < 0 || from >= len(d.taken):
	case kind == kindByeAck:
		d.settle(from)
	case d.taken[from].Load() >= n:
		w.queueAnswer(answer{to: from, kind: kindByeAck})
	default:
		d.owed[from].Store(n)
	}
}

// drainPeers is Close's drain, run while the progress loop, the liveness
// tick and the NIC still work: bye every live peer this worker sent frames
// to, then wait for each to answer, die (DeclarePeerFailed) or lose its link
// (the peer-down hook, or the bye's own send failing), at most
// closeDrainBound. A peer whose link broke earlier gets no bye: a link that
// breaks between two live processes is not lossless, and on a lossless one
// the peer has closed or exited.
func (w *Worker) drainPeers() {
	d := w.drain
	if d == nil || w.cfg.Reliable {
		return
	}
	var waiting []int
	for p := range d.sent {
		if n := d.sent[p].Load(); n > 0 && p != w.Rank() && !w.dead[p].Load() && !d.done[p].Load() {
			w.queueAnswer(answer{to: p, kind: kindBye, status: n})
			waiting = append(waiting, p)
		}
	}
	if len(waiting) == 0 {
		return
	}
	bound := time.NewTimer(closeDrainBound)
	defer bound.Stop()
	for {
		waiting = slices.DeleteFunc(waiting, func(p int) bool { return d.done[p].Load() || w.dead[p].Load() })
		if len(waiting) == 0 {
			return
		}
		select {
		case <-d.wake:
		case <-bound.C:
			return
		}
	}
}

// resetDrain forgets a revived rank's counts and broken link: its new
// incarnation counts from zero on a fresh link, and so does this worker.
func (w *Worker) resetDrain(rank int) {
	if d := w.drain; d != nil {
		d.sent[rank].Store(0)
		d.taken[rank].Store(0)
		d.owed[rank].Store(0)
		d.done[rank].Store(false)
	}
}
