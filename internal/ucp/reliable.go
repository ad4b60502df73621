package ucp

// Reliability machinery: retransmission of unacknowledged sends, duplicate
// suppression on the receiver, fragment checksums, deadline enforcement
// and reaping of stale abort records. Everything here is driven by the
// worker's janitor goroutine, which only runs when Config.Reliable or
// Config.ReqTimeout asks for it — plain lossless runs carry none of the
// cost.
//
// The protocol is sender-driven: a reliable eager send retains the packed
// message and retransmits all of it until the receiver's ack arrives; a
// reliable rendezvous send retransmits the RTS until the FIN arrives (a
// lost FIN is recovered because the receiver answers a duplicate RTS for
// a completed message by resending the FIN). The receiver keeps a bounded
// set of recently completed message ids so duplicates trigger an ack or
// FIN resend instead of a second delivery — together this gives
// exactly-once completion on both sides for any pattern of packet drop,
// duplication and reordering, and bounded-time failure (ErrTimeout) when
// the peer is unreachable.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// Header flag bits layered on fabric.Flags by the transport.
const (
	// flagReliable marks an eager fragment whose sender expects an ack.
	flagReliable uint8 = 1 << 6
	// flagCRC marks an eager fragment whose header Aux1 carries a CRC32C
	// of the payload.
	flagCRC uint8 = 1 << 7
)

// janitorTick is the sweep period for retransmits, deadlines and reaping.
const janitorTick = 2 * time.Millisecond

// completedCap bounds the per-worker duplicate-suppression set. Older
// entries are evicted FIFO; a duplicate arriving after eviction would be
// redelivered, so the cap is sized far above any plausible retransmit
// window.
const completedCap = 4096

// doneRec remembers how a completed wire message finished so duplicates
// can be answered without redelivery.
type doneRec struct {
	kind   fabric.Kind // kindEagerAck or kindFIN
	status int64       // 0 success, 1 failure
}

// rexmitEntry is one unacknowledged send awaiting ack (eager) or FIN
// (rendezvous RTS).
type rexmitEntry struct {
	dst      int
	tag      Tag
	id       uint64
	total    int64
	aux      int64
	req      *Request
	payload  []byte        // retained packed message (eager); nil for RTS
	hdr      fabric.Header // control header to resend (RTS); unused for eager
	eager    bool
	attempts int
	next     time.Time
}

// startJanitor launches the sweep goroutine when the configuration needs
// one.
func (w *Worker) startJanitor() {
	if !w.cfg.Reliable && w.cfg.ReqTimeout <= 0 {
		return
	}
	w.wg.Add(1)
	go w.janitor()
}

func (w *Worker) janitor() {
	defer w.wg.Done()
	t := time.NewTicker(janitorTick)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			return
		case now := <-t.C:
			w.sweep(now)
		}
	}
}

// sweep advances the reliability state machine one tick: resend overdue
// unacknowledged messages, fail requests past their deadline or
// retransmission budget, and reap stale errored unexpected entries. All
// fabric sends and request completions happen after w.mu is released.
func (w *Worker) sweep(now time.Time) {
	type expiredSend struct {
		e *rexmitEntry
		s *sendOp // the rendezvous send to tear down; nil for eager
	}
	var (
		resend  []*rexmitEntry
		expired []expiredSend
		timedCb []func()
	)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	for id, e := range w.rexmit {
		if now.Before(e.next) {
			continue
		}
		if e.attempts >= w.cfg.RexmitRetries {
			delete(w.rexmit, id)
			var s *sendOp
			if !e.eager {
				s = w.sends[id]
				delete(w.sends, id)
			}
			expired = append(expired, expiredSend{e, s})
			continue
		}
		e.attempts++
		e.next = now.Add(w.rexmitBackoff().Delay(e.attempts, w.rng))
		resend = append(resend, e)
	}
	if w.cfg.ReqTimeout > 0 {
		// Posted receives that never matched.
		expiredReqs := w.table.filterPosted(func(r *Request) bool {
			return r.deadline.IsZero() || !now.After(r.deadline)
		})
		for _, r := range expiredReqs {
			req := r
			timedCb = append(timedCb, func() {
				w.stats.Timeouts.Add(1)
				req.complete(-1, 0, 0, 0, ErrTimeout)
			})
		}
		// Matched eager receives whose remaining fragments never came.
		for key, op := range w.active {
			if op.deadline.IsZero() || now.Before(op.deadline) {
				continue
			}
			delete(w.active, key)
			expiredOp := op
			timedCb = append(timedCb, func() {
				if expiredOp.fail(ErrTimeout) {
					w.stats.Timeouts.Add(1)
					w.finishRecv(expiredOp)
				}
			})
		}
	}
	// Reap errored unexpected entries no receive ever claimed.
	if w.table.lenUnexpected() > 0 {
		stale := w.table.filterUnexpected(func(m *unexMsg) bool {
			return m.errored == nil || m.erroredAt.IsZero() || now.Sub(m.erroredAt) <= abortLinger
		})
		for _, m := range stale {
			w.stats.AbortsReaped.Add(1)
			reaped := m
			timedCb = append(timedCb, func() { w.releaseFrags(reaped) })
		}
	}
	// Wake blocking probes so they re-check their deadlines (probe waits
	// on w.cond rather than carrying a per-request deadline entry).
	w.cond.Broadcast()
	w.mu.Unlock()

	for _, e := range resend {
		w.stats.Retransmits.Add(1)
		w.ev(obs.EvRexmit, e.dst, e.id, e.tag, e.total, int64(e.attempts))
		if e.eager {
			w.sendEagerFrags(e.dst, e.tag, e.id, e.total, e.aux, e.payload)
		} else {
			_ = w.nic.Send(e.dst, e.hdr)
		}
	}
	for _, x := range expired {
		w.stats.Timeouts.Add(1)
		if x.s != nil {
			w.nic.Deregister(x.s.key)
			x.s.src.Finish()
		}
		// A destination the detector has since declared dead gets the
		// taxonomy error, not a bare timeout (the usual path flushes such
		// entries at declaration time; this covers the race where the
		// declaration lands mid-sweep).
		err := fmt.Errorf("%w: send to rank %d unacked after %d attempts", ErrTimeout, x.e.dst, x.e.attempts)
		if w.PeerFailed(x.e.dst) {
			err = procFailedErr(x.e.dst)
		}
		x.e.req.complete(x.e.dst, x.e.tag, 0, x.e.aux, err)
	}
	for _, cb := range timedCb {
		cb()
	}
}

func (w *Worker) rexmitBackoff() fabric.Backoff {
	return fabric.Backoff{Base: w.cfg.RexmitBase, Max: w.cfg.RexmitMax, Factor: 2, Jitter: 0.25}
}

// trackRexmit registers an unacknowledged send with the janitor. Caller
// must not hold w.mu.
func (w *Worker) trackRexmit(e *rexmitEntry) error {
	e.next = time.Now().Add(w.rexmitBackoff().Delay(0, nil))
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWorkerClosed
	}
	w.rexmit[e.id] = e
	w.mu.Unlock()
	return nil
}

// ackRexmit resolves the rexmit entry for id, completing its request with
// the acknowledged status. Duplicate acks find no entry and are ignored.
func (w *Worker) ackRexmit(id uint64, status int64) {
	w.mu.Lock()
	e, ok := w.rexmit[id]
	if ok {
		delete(w.rexmit, id)
	}
	w.mu.Unlock()
	if !ok || !e.eager {
		return
	}
	var err error
	if status != 0 {
		err = errors.New("ucp: remote receive failed (eager ack)")
	}
	e.req.complete(e.dst, e.tag, e.total, e.aux, err)
}

// eagerSendReliable packs the whole message into a retained buffer (a
// sequential pass, legal for every source class including inorder custom
// types), then streams checksummed fragments that the janitor retransmits
// until the receiver acks. Fragment-level send errors are deliberately
// ignored: a down link is exactly what retransmission is for.
func (w *Worker) eagerSendReliable(dst int, tag Tag, id uint64, total, aux int64, src SendState, req *Request) error {
	buf := make([]byte, total)
	frag := int64(w.cfg.FragSize)
	for off := int64(0); off < total; {
		n := frag
		if rem := total - off; n > rem {
			n = rem
		}
		got, err := src.ReadAt(buf[off:off+n], off)
		if err != nil && err != io.EOF {
			return err
		}
		if got == 0 {
			return fabric.ErrShortTransfer
		}
		off += int64(got)
	}
	if err := w.trackRexmit(&rexmitEntry{dst: dst, tag: tag, id: id, total: total, aux: aux, req: req, payload: buf, eager: true}); err != nil {
		return err
	}
	w.sendEagerFrags(dst, tag, id, total, aux, buf)
	return nil
}

// sendEagerFrags streams one full copy of a retained eager message.
func (w *Worker) sendEagerFrags(dst int, tag Tag, id uint64, total, aux int64, buf []byte) {
	frag := int64(w.cfg.FragSize)
	off := int64(0)
	for {
		n := frag
		if rem := total - off; n > rem {
			n = rem
		}
		hdr := fabric.Header{Kind: kindEager, Flags: flagReliable, Tag: uint64(tag), MsgID: id, Offset: off, Total: total, Aux0: aux}
		if off > 0 && off+n < total {
			hdr.Flags |= fabric.FlagUnordered
		}
		payload := buf[off : off+n]
		if w.cfg.Checksum {
			hdr.Flags |= flagCRC
			hdr.Aux1 = int64(fabric.CRC32(payload))
		}
		if err := w.nic.Send(dst, hdr, payload); err == nil {
			w.stats.EagerFragments.Add(1)
		}
		off += n
		if off >= total {
			return
		}
	}
}

// recordCompleted remembers how a wire message finished so later
// duplicates can be answered without redelivery. Caller must not hold
// w.mu. No-op unless Reliable.
func (w *Worker) recordCompleted(key msgKey, kind fabric.Kind, status int64) {
	if !w.cfg.Reliable {
		return
	}
	w.mu.Lock()
	if _, ok := w.completed[key]; !ok {
		w.completed[key] = doneRec{kind: kind, status: status}
		w.completedFIFO = append(w.completedFIFO, key)
		if len(w.completedFIFO) > completedCap {
			evict := w.completedFIFO[0]
			w.completedFIFO = w.completedFIFO[1:]
			delete(w.completed, evict)
		}
	}
	w.mu.Unlock()
}

// verifyFragCRC checks a checksummed eager fragment. It reports whether
// the fragment should be delivered; on mismatch the packet is consumed:
// dropped when retransmission will recover it, or converted into a
// receive failure when it will not.
func (w *Worker) verifyFragCRC(pkt *fabric.Packet) bool {
	if pkt.Hdr.Flags&flagCRC == 0 || len(pkt.Payload) == 0 {
		return true
	}
	if fabric.CRC32(pkt.Payload) == uint32(uint64(pkt.Hdr.Aux1)) {
		return true
	}
	w.stats.CorruptDrops.Add(1)
	if pkt.Hdr.Flags&flagReliable != 0 {
		// The sender retains the message; a retransmitted copy replaces
		// this fragment.
		pkt.Release()
		return false
	}
	w.failEagerFrag(pkt)
	return false
}

// failEagerFrag routes a corrupt unreliable fragment as a receive
// failure: the payload is untrustworthy, but the header still identifies
// the message, so the matching receive fails with ErrCorrupt instead of
// hanging on a byte count that never completes.
func (w *Worker) failEagerFrag(pkt *fabric.Packet) {
	key := msgKey{pkt.From, pkt.Hdr.MsgID}
	err := errorCorruptFrag(pkt.Hdr.Offset)
	w.mu.Lock()
	if op, ok := w.active[key]; ok {
		w.mu.Unlock()
		op.mu.Lock()
		op.discard = true
		if op.failure == nil {
			op.failure = err
		}
		op.mu.Unlock()
		w.feed(op, pkt) // keep counting so the receive still finishes
		return
	}
	if m := w.findBuffered(key); m != nil {
		if m.errored == nil {
			m.errored = err
			m.erroredAt = time.Now()
		}
		w.releaseFrags(m)
		// Keep counting so nothing downstream waits on this message.
		m.buffered += int64(len(pkt.Payload))
		w.cond.Broadcast()
		w.mu.Unlock()
		pkt.Release()
		return
	}
	// First sign of this message: record it as errored so a receive that
	// matches it fails promptly.
	m := newUnex(inboundOf(pkt))
	m.errored, m.erroredAt = err, time.Now()
	pkt.Release()
	if req := w.table.matchPosted(m.from, m.tag); req != nil {
		w.startRecvLocked(req, m) // releases w.mu
		return
	}
	w.table.addUnexpected(m)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// timedGet is nic.Get plus the get_rtt_ns histogram observation when the
// obs layer is enabled.
func (w *Worker) timedGet(from int, key uint64, off int64, sink fabric.Sink, sinkOff, n int64) error {
	if w.obs == nil {
		return w.nic.Get(from, key, off, sink, sinkOff, n)
	}
	start := time.Now()
	err := w.nic.Get(from, key, off, sink, sinkOff, n)
	w.obs.getNS.Observe(time.Since(start).Nanoseconds())
	return err
}

func errorCorruptFrag(off int64) error {
	return fmt.Errorf("%w: eager fragment at offset %d failed checksum", ErrCorrupt, off)
}

// findBuffered locates an unexpected or claimed entry for key. Caller
// holds w.mu.
func (w *Worker) findBuffered(key msgKey) *unexMsg {
	if m, ok := w.claimed[key]; ok {
		return m
	}
	return w.table.findUnexpected(key)
}

// addFragDedup appends an eager fragment to a buffered message, dropping
// it when an equal-or-longer copy of the same offset is already held
// (retransmissions resend whole messages). Returns the payload bytes
// newly buffered. Caller holds w.mu.
func (w *Worker) addFragDedup(m *unexMsg, pkt *fabric.Packet) int64 {
	if w.cfg.Reliable {
		for i, f := range m.frags {
			if f.Hdr.Offset != pkt.Hdr.Offset {
				continue
			}
			if len(f.Payload) >= len(pkt.Payload) {
				w.stats.DupFrags.Add(1)
				pkt.Release()
				return 0
			}
			// The held copy was truncated; the new one supersedes it.
			delta := int64(len(pkt.Payload) - len(f.Payload))
			f.Release()
			m.frags[i] = pkt
			return delta
		}
	}
	m.frags = append(m.frags, pkt)
	return int64(len(pkt.Payload))
}

// RexmitInfo describes one unacknowledged reliable send — which peer
// has not confirmed receipt, and how many resend rounds it has cost.
// Debug/ops surface (launch workers dump it when a job dies).
type RexmitInfo struct {
	Dst      int
	Tag      Tag
	Eager    bool
	Attempts int
}

// RexmitSnapshot lists the sends currently awaiting acknowledgement.
func (w *Worker) RexmitSnapshot() []RexmitInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]RexmitInfo, 0, len(w.rexmit))
	for _, e := range w.rexmit {
		out = append(out, RexmitInfo{Dst: e.dst, Tag: e.tag, Eager: e.eager, Attempts: e.attempts})
	}
	return out
}

// ackItem is one queued outbound eager ack.
type ackItem struct {
	to     int
	id     uint64
	status int64
}

// sendAck acknowledges a completed reliable eager message. Acks are
// queued, not sent inline: every call site runs on the progress
// goroutine, and a wire send can block on transport backpressure (a
// full shared-memory ring, a full socket buffer). A blocked progress
// loop stops draining the inbox, which stalls the provider's inbound
// path, which keeps the peer's channel to this rank full — at scale
// that closes a distributed cycle where every rank waits to enqueue an
// ack that only its equally-stalled peer could drain, and no
// retransmission budget can break it (retransmits need the same full
// channels). The pump goroutine absorbs the backpressure instead; the
// queue is bounded in practice by the number of in-flight reliable
// messages.
func (w *Worker) sendAck(to int, id uint64, status int64) {
	w.stats.AcksSent.Add(1)
	w.ackMu.Lock()
	if w.ackClosed {
		w.ackMu.Unlock()
		return
	}
	w.ackQ = append(w.ackQ, ackItem{to, id, status})
	w.ackMu.Unlock()
	w.ackCond.Signal()
}

// ackPump drains queued acks onto the wire, absorbing any transport
// backpressure off the progress goroutine. Post-close sends fail fast
// (the NIC is closed), so shutdown never wedges here.
func (w *Worker) ackPump() {
	defer w.wg.Done()
	defer close(w.ackDrained) // Close waits on this before tearing down the NIC
	for {
		w.ackMu.Lock()
		for len(w.ackQ) == 0 && !w.ackClosed {
			w.ackCond.Wait()
		}
		if len(w.ackQ) == 0 {
			w.ackMu.Unlock()
			return
		}
		q := w.ackQ
		w.ackQ = nil
		w.ackMu.Unlock()
		for _, a := range q {
			_ = w.nic.Send(a.to, fabric.Header{Kind: kindEagerAck, MsgID: a.id, Aux0: a.status})
		}
	}
}

// handleEagerAck completes the sender side of a reliable eager message.
func (w *Worker) handleEagerAck(pkt *fabric.Packet) {
	id := pkt.Hdr.MsgID
	status := pkt.Hdr.Aux0
	pkt.Release()
	w.ackRexmit(id, status)
}

// getRetry wraps a rendezvous Get with bounded retries for transient
// failures (link down, corrupt frame). Unrecoverable errors — unknown
// key, closed NIC — and sequential sinks (which cannot rewind) pass
// straight through.
func (w *Worker) getRetry(from int, key uint64, off int64, sink fabric.Sink, sinkOff, n int64, sequential bool) error {
	if w.PeerFailed(from) {
		return procFailedErr(from)
	}
	err := w.timedGet(from, key, off, sink, sinkOff, n)
	if err != nil && errors.Is(err, fabric.ErrRankDead) {
		// Only a dead process produces ErrRankDead: promote it to a peer
		// failure so every other operation on the rank fails too, and do
		// not waste a single retry on it.
		w.DeclarePeerFailed(from)
		return procFailedErr(from)
	}
	if err == nil || sequential ||
		errors.Is(err, fabric.ErrBadKey) || errors.Is(err, fabric.ErrClosed) {
		return err
	}
	bo := w.rexmitBackoff()
	rng := rand.New(rand.NewSource(int64(key)<<20 ^ off ^ n))
	for attempt := 0; attempt < getRetries; attempt++ {
		t := time.NewTimer(bo.Delay(attempt, rng))
		select {
		case <-w.quit:
			t.Stop()
			return err
		case <-t.C:
		}
		if w.PeerFailed(from) {
			return procFailedErr(from)
		}
		w.stats.GetRetries.Add(1)
		if err = w.timedGet(from, key, off, sink, sinkOff, n); err == nil {
			return nil
		}
		if errors.Is(err, fabric.ErrRankDead) {
			w.DeclarePeerFailed(from)
			return procFailedErr(from)
		}
		if errors.Is(err, fabric.ErrBadKey) || errors.Is(err, fabric.ErrClosed) {
			return err
		}
	}
	return err
}
