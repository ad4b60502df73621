package ucp

// Reliability machinery: retransmission of unacknowledged sends, duplicate
// suppression on the receiver, fragment checksums, deadline enforcement
// and reaping of stale abort records. Retransmission and deadlines are
// driven by the worker's janitor goroutine, which only runs when
// Config.Reliable or Config.ReqTimeout asks for it — plain lossless runs
// carry none of the cost. Reaping runs in every configuration, on a
// one-shot timer armed only while an errored entry waits (reap).
//
// The protocol is sender-driven: a reliable eager send retains the packed
// message and retransmits all of it until the receiver's ack arrives; a
// reliable rendezvous send retransmits the RTS until the FIN arrives (a
// lost FIN is recovered because the receiver answers a duplicate RTS for
// a completed message by resending the FIN). The first Get the NIC serves
// of its source acknowledges the RTS: from then on it is resent only once
// a RexmitMax, for a FIN that may have been lost. Both wait in the one table of
// sends awaiting the peer's answer (Worker.sends, keyed by message id),
// which the janitor walks. The receiver keeps a bounded
// set of recently completed message ids so duplicates trigger an ack or
// FIN resend instead of a second delivery — together this gives
// exactly-once completion on both sides for any pattern of packet drop,
// duplication and reordering, and bounded-time failure (ErrTimeout) when
// the peer is unreachable.

import (
	"errors"
	"fmt"
	"io"
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
// unanswered sends and fail requests past their deadline or retransmission
// budget. Whatever it takes out of a table under w.mu it finishes after
// releasing it, as do all fabric sends.
func (w *Worker) sweep(now time.Time) {
	var resend, expired, latePosted, lateActive []*Request
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if w.cfg.Reliable {
		for id, r := range w.sends {
			switch s := r.send; {
			case now.Before(s.next):
			case s.src != nil && !s.served && w.nic.Served(r.key):
				// The receiver is pulling: the RTS arrived. Only a lost FIN
				// still needs one, so its timer drops to a probe a RexmitMax.
				s.served = true
				s.next = now.Add(w.cfg.RexmitMax)
			case s.attempts >= w.cfg.RexmitRetries:
				delete(w.sends, id)
				expired = append(expired, r)
			default:
				s.attempts++
				d := w.cfg.RexmitMax
				if !s.served {
					d = w.rexmitBackoff().Delay(s.attempts, w.rng)
				}
				s.next = now.Add(d)
				resend = append(resend, r)
			}
		}
	}
	if w.cfg.ReqTimeout > 0 {
		// Posted receives and blocked probes that never matched.
		latePosted = w.table.filterPosted(func(r *Request) bool {
			return r.deadline.IsZero() || !now.After(r.deadline)
		})
		// Matched eager receives whose remaining fragments never came.
		for key, op := range w.active {
			if !op.deadline.IsZero() && !now.Before(op.deadline) {
				delete(w.active, key)
				lateActive = append(lateActive, op)
			}
		}
	}
	w.mu.Unlock()

	for _, r := range resend {
		w.stats.Retransmits.Add(1)
		s := r.send
		w.ev(obs.EvRexmit, s.dst, r.msgID, s.tag, s.total, int64(s.attempts))
		if s.src != nil {
			_ = w.nic.Send(s.dst, r.sendHdr())
		} else {
			w.sendEagerFrags(s.dst, r.sendHdr(), s.payload)
		}
	}
	for _, r := range expired {
		dst := r.send.dst
		w.stats.Timeouts.Add(1)
		// A destination declared dead since gets the taxonomy error, not a
		// bare timeout (the usual path flushes such entries at declaration
		// time; this covers the race where the declaration lands mid-sweep).
		err := fmt.Errorf("%w: send to rank %d unacked after %d attempts", ErrTimeout, dst, r.send.attempts)
		if w.PeerFailed(dst) {
			err = procFailedErr(dst)
		}
		w.finishSend(r, err)
	}
	for _, r := range latePosted {
		w.stats.Timeouts.Add(1)
		r.complete(-1, 0, 0, 0, ErrTimeout)
	}
	for _, op := range lateActive {
		if w.failActive(op, ErrTimeout) {
			w.stats.Timeouts.Add(1)
		}
	}
}

// markErrored records err as the failure of the unclaimed message m, so a
// late receive fails fast, drops what m buffered, and arms the reap that
// removes m once no receive has claimed it for abortLinger. Caller holds
// w.mu.
func (w *Worker) markErrored(m *unexMsg, err error) {
	m.errored, m.erroredAt = err, time.Now()
	w.releaseFrags(m)
	w.armReapLocked()
}

// armReapLocked schedules reap unless it is already pending or Close has
// begun. The pending timer holds a count of w.wg until it has run or Close
// stops it. Caller holds w.mu.
func (w *Worker) armReapLocked() {
	if w.reaper == nil && !w.closed {
		w.wg.Add(1)
		w.reaper = time.AfterFunc(abortLinger, w.reap)
	}
}

// reap drops the errored unexpected entries older than abortLinger and
// comes back while younger ones remain, so a worker with no errored entry
// has no timer pending.
func (w *Worker) reap() {
	defer w.wg.Done()
	now, young := time.Now(), false
	w.mu.Lock()
	w.reaper = nil
	stale := w.table.filterUnexpected(func(m *unexMsg) bool {
		keep := m.errored == nil || now.Sub(m.erroredAt) <= abortLinger
		young = young || m.errored != nil && keep
		return keep
	})
	if young {
		w.armReapLocked()
	}
	w.mu.Unlock()
	for _, m := range stale {
		w.stats.AbortsReaped.Add(1)
		w.releaseFrags(m)
	}
}

func (w *Worker) rexmitBackoff() fabric.Backoff {
	return fabric.Backoff{Base: w.cfg.RexmitBase, Max: w.cfg.RexmitMax, Factor: 2, Jitter: 0.25}
}

// eagerSendReliable packs the whole message into a retained buffer (a
// sequential pass, legal for every source class including inorder custom
// types), then streams checksummed fragments that the janitor retransmits
// until the receiver acks. Fragment-level send errors are deliberately
// ignored: a down link is exactly what retransmission is for.
func (w *Worker) eagerSendReliable(dst int, total int64, src SendState, req *Request) error {
	buf := make([]byte, total)
	frag := int64(w.fab.FragSize)
	for off := int64(0); off < total; {
		n := min(frag, total-off)
		got, err := src.ReadAt(buf[off:off+n], off)
		if err != nil && err != io.EOF {
			return err
		}
		if got == 0 {
			return fabric.ErrShortTransfer
		}
		off += int64(got)
	}
	req.send.payload = buf
	if err := w.trackSend(req); err != nil {
		return err
	}
	w.sendEagerFrags(dst, req.sendHdr(), buf)
	return nil
}

// sendEagerFrags streams one full copy of a retained eager message; tmpl is
// what every fragment's header shares.
func (w *Worker) sendEagerFrags(dst int, tmpl fabric.Header, buf []byte) {
	frag := int64(w.fab.FragSize)
	total := tmpl.Total
	off := int64(0)
	for {
		n := min(frag, total-off)
		hdr := tmpl
		hdr.Offset = off
		payload := buf[off : off+n]
		if w.fab.Checksum {
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

// recordCompletedLocked remembers how a wire message finished so later
// duplicates can be answered without redelivery. Caller holds w.mu. No-op
// unless Reliable.
func (w *Worker) recordCompletedLocked(key msgKey, kind fabric.Kind, status int64) {
	if _, ok := w.completed[key]; ok || !w.cfg.Reliable {
		return
	}
	w.completed[key] = doneRec{kind: kind, status: status}
	w.completedFIFO = append(w.completedFIFO, key)
	if len(w.completedFIFO) > completedCap {
		evict := w.completedFIFO[0]
		w.completedFIFO = w.completedFIFO[1:]
		delete(w.completed, evict)
	}
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
	if m := w.table.findUnexpected(key); m != nil {
		if m.errored == nil {
			w.markErrored(m, err)
		}
		// Keep counting so nothing downstream waits on this message.
		m.buffered += int64(len(pkt.Payload))
		w.mu.Unlock()
		pkt.Release()
		return
	}
	// First sign of this message: record it as errored so a receive that
	// matches it fails promptly.
	in := inboundOf(pkt)
	pkt.Release()
	req, m := w.arriveLocked(in)
	if req == nil {
		w.markErrored(m, err)
	}
	w.mu.Unlock()
	if req != nil {
		req.complete(in.from, in.tag, 0, in.aux0, err)
	}
}

func errorCorruptFrag(off int64) error {
	return fmt.Errorf("%w: eager fragment at offset %d failed checksum", ErrCorrupt, off)
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

// answer is one queued outbound control frame: an eager ack, the FIN that
// answers a duplicate RTS, or Close's drain: a bye and the answer to one.
type answer struct {
	to     int
	kind   fabric.Kind
	id     uint64
	status int64
}

// sendAck acknowledges a completed reliable eager message.
func (w *Worker) sendAck(to int, id uint64, status int64) {
	w.stats.AcksSent.Add(1)
	w.queueAnswer(answer{to: to, kind: kindEagerAck, id: id, status: status})
}

// queueAnswer hands a reply to the ack pump, starting the pump on the first
// one. Answers are queued, not sent inline: the call sites deliver packets
// under the progress lock — on the progress goroutine, or on an in-process
// sender's (fabric.NIC.Handoff), where a Send would nest another rank's
// handler — and a wire send can block on transport backpressure
// (a full shared-memory ring, a full socket buffer). A blocked progress
// loop stops draining the inbox, which stalls the provider's inbound
// path, which keeps the peer's channel to this rank full — at scale
// that closes a distributed cycle where every rank waits to enqueue an
// ack that only its equally-stalled peer could drain, and no
// retransmission budget can break it (retransmits need the same full
// channels). The pump goroutine absorbs the backpressure instead; the
// queue is bounded in practice by the number of in-flight reliable
// messages.
func (w *Worker) queueAnswer(a answer) {
	w.ackMu.Lock()
	if w.ackClosed {
		w.ackMu.Unlock()
		return
	}
	w.ackQ = append(w.ackQ, a)
	if w.ackDrained == nil {
		w.ackDrained = make(chan struct{})
		w.wg.Add(1)
		go w.ackPump()
	}
	w.ackMu.Unlock()
	w.ackCond.Signal()
}

// ackPump drains queued answers onto the wire, absorbing any transport
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
			err := w.nic.Send(a.to, fabric.Header{Kind: a.kind, MsgID: a.id, Aux0: a.status})
			if err != nil && a.kind == kindBye {
				w.drain.settle(a.to) // no link to the peer: nobody will answer
			}
		}
	}
}

// get runs one Get of a pull and passes the outcome on. Unrecoverable errors
// — unknown key, closed NIC, dead peer — and a job starting inside the
// sink's ordered prefix (which cannot rewind) count the job done at once; a
// transient failure (link down, corrupt frame) is retried up to getRetries
// times.
func (w *Worker) get(j job) {
	op := j.op
	err := w.fetch(j)
	if err == nil || j.off < op.ordered || permanent(err) || j.attempt == getRetries {
		w.jobDone(op, err)
		return
	}
	// A retry is this job queued again when its back-off has passed: no
	// puller is held meanwhile. The timer holds a count of w.wg until it has
	// run, or until Close stops it and fails the job.
	w.mu.Lock()
	d := w.rexmitBackoff().Delay(j.attempt, w.rng)
	w.mu.Unlock()
	j.attempt++
	w.jobMu.Lock()
	if w.quitting() {
		w.jobMu.Unlock()
		w.jobDone(op, ErrWorkerClosed)
		return
	}
	w.wg.Add(1)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		w.jobMu.Lock()
		delete(w.retries, t)
		w.jobMu.Unlock()
		w.enqueue(j)
		w.wg.Done()
	})
	w.retries[t] = j
	w.jobMu.Unlock()
}

// fetch runs the Get of job j once.
func (w *Worker) fetch(j job) error {
	op, from := j.op, j.op.srcRank
	switch {
	case w.quitting():
		return ErrWorkerClosed
	case w.PeerFailed(from):
		return procFailedErr(from)
	}
	if j.attempt > 0 {
		w.stats.GetRetries.Add(1)
	}
	start := w.obsNow()
	err := w.nic.Get(from, op.key, j.off, op.sink, j.off, j.n)
	if w.obs != nil {
		w.obs.getNS.Observe(time.Since(start).Nanoseconds())
	}
	if errors.Is(err, fabric.ErrRankDead) {
		// Only a dead process produces ErrRankDead: promote it to a peer
		// failure so every other operation on the rank fails too, and do
		// not waste a single retry on it.
		w.DeclarePeerFailed(from)
		err = procFailedErr(from)
	}
	return err
}

// permanent reports whether a failed Get is final: neither a retry nor a
// sequential re-pull of the message could end differently.
func permanent(err error) bool {
	return errors.Is(err, fabric.ErrBadKey) || errors.Is(err, fabric.ErrClosed) ||
		errors.Is(err, ErrProcFailed) || errors.Is(err, ErrWorkerClosed)
}
