package ucp

// The drain at Close: MPI_Finalize's guarantee for unacked eager sends on a
// link whose peers are separate processes (fabric.Link.CrossProcess). Such a
// send completes once the NIC took it, which can be before the peer's
// progress loop did; if this process then exits, the peer may learn of the
// exit first — and a death verdict fails every message from the rank not yet
// whole, and every receive still posted for one. So at Close the worker
// sends every live peer it sent data frames to (eager fragments, RTS, FIN,
// abort) a bye, through the ack pump, and waits — closeDrainBound at most —
// until each has answered, died, or lost its link. The bye is a marker: a
// lossless link delivers a pair's frames in the order they were sent
// (fabric.Link), so once the peer's loop takes the bye in it has taken in
// every frame before it, and it answers there. What arrived whole stays
// receivable after a verdict (DeclarePeerFailed), so once the answer is in,
// this process's exit cannot overtake its last frames. A Reliable worker
// does not send byes — what it sent completes on the peer's ack — but
// answers them like any worker on such a link. In-process workers have no
// drain state at all.

import (
	"slices"
	"sync/atomic"
	"time"

	"mpicd/internal/fabric"
)

const (
	kindBye    fabric.Kind = 14 // Close's drain marker, behind the last data frame to the peer
	kindByeAck fabric.Kind = 15 // answer to a bye: every frame before it was taken in
)

// closeDrainBound is the longest Close waits for the answers to its byes.
var closeDrainBound = 3 * time.Second

// drainState is a worker's drain bookkeeping, one slot a peer.
type drainState struct {
	sent []atomic.Bool // a data frame was handed the NIC for the peer
	done []atomic.Bool // this worker's bye was answered, or cannot be: the link broke
	wake chan struct{} // capacity 1: some done flag was set, or a peer died
}

func newDrainState(n int) *drainState {
	return &drainState{
		sent: make([]atomic.Bool, n),
		done: make([]atomic.Bool, n),
		wake: make(chan struct{}, 1),
	}
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

// sentFrame records that a data frame was handed the NIC for dst.
func (w *Worker) sentFrame(dst int) {
	if d := w.drain; d != nil && !d.sent[dst].Load() {
		d.sent[dst].Store(true)
	}
}

// handleBye answers a bye: the loop takes it in behind every frame the peer
// sent before it. A byeAck settles this worker's own bye.
func (w *Worker) handleBye(pkt *fabric.Packet) {
	from, kind := pkt.From, pkt.Hdr.Kind
	pkt.Release()
	d := w.drain
	switch {
	case d == nil || from < 0 || from >= len(d.done):
	case kind == kindByeAck:
		d.settle(from)
	default:
		w.queueAnswer(answer{to: from, kind: kindByeAck})
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
		if d.sent[p].Load() && p != w.Rank() && !w.dead[p].Load() && !d.done[p].Load() {
			w.queueAnswer(answer{to: p, kind: kindBye})
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

// resetDrain forgets what this worker sent a revived rank and its broken
// link: the new incarnation starts on a fresh link.
func (w *Worker) resetDrain(rank int) {
	if d := w.drain; d != nil {
		d.sent[rank].Store(false)
		d.done[rank].Store(false)
	}
}
