package ucp

import (
	"fmt"
	"time"
)

// Message describes a probed inbound message. A Message returned by Mprobe
// is claimed: it is no longer visible to matching and must be consumed with
// MRecv (the MPI_Mprobe/MPI_Mrecv pattern the paper's Python discussion
// revolves around).
type Message struct {
	From  int
	Tag   Tag
	Total int64
	Aux0  int64

	w       *Worker
	msg     *unexMsg
	claimed bool
}

// Probe looks for an inbound message matching (from, tag, mask) without
// removing it. With block set it waits for one; otherwise it returns nil
// when nothing matches. A blocking probe honors Config.ReqTimeout exactly
// like Recv: when the deadline passes with no match it fails with
// ErrTimeout instead of waiting forever on a dead peer.
func (w *Worker) Probe(from int, tag, mask Tag, block bool) (*Message, error) {
	return w.probe(from, tag, mask, block, false)
}

// Mprobe is Probe plus claim: the matched message is removed from the
// unexpected queue and reserved for a later MRecv.
func (w *Worker) Mprobe(from int, tag, mask Tag, block bool) (*Message, error) {
	return w.probe(from, tag, mask, block, true)
}

func (w *Worker) probe(from int, tag, mask Tag, block, claim bool) (*Message, error) {
	probeReq := &Request{tag: tag, mask: mask, from: from}
	// Blocking probes carry the same deadline as receives. The janitor
	// broadcasts w.cond every sweep tick (it always runs when ReqTimeout
	// is configured), so a prober blocked on a dead peer wakes, observes
	// the expired deadline and fails with ErrTimeout instead of hanging.
	var deadline time.Time
	if block && w.cfg.ReqTimeout > 0 {
		deadline = time.Now().Add(w.cfg.ReqTimeout)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.closed {
			return nil, ErrWorkerClosed
		}
		if m := w.table.probeEarliest(probeReq); m != nil {
			info := &Message{From: m.from, Tag: m.tag, Total: m.total, Aux0: m.aux0, w: w, msg: m}
			if claim {
				w.table.removeUnexpected(m)
				m.claimed = true
				info.claimed = true
				if m.selfSrc == nil && !m.rndv {
					// Eager fragments keep arriving; route them here.
					w.claimed[msgKey{m.from, m.id}] = m
				}
			}
			return info, nil
		}
		// Nothing buffered can satisfy the probe; if its only possible
		// senders are declared dead, no message ever will. This covers
		// blocked probes with no ReqTimeout configured: DeclarePeerFailed
		// broadcasts w.cond, the prober wakes, re-scans, and lands here.
		if err := w.deadSourceErr(from); err != nil {
			return nil, err
		}
		if !block {
			return nil, nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			w.stats.Timeouts.Add(1)
			return nil, ErrTimeout
		}
		w.cond.Wait()
	}
}

// MRecv receives a message claimed by Mprobe into (buf, count) with
// datatype dt.
func (w *Worker) MRecv(m *Message, dt Datatype, buf any, count int64) (*Request, error) {
	if m == nil || !m.claimed || m.w != w {
		return nil, fmt.Errorf("ucp: MRecv requires a message claimed by Mprobe on this worker")
	}
	req := newRequest(w)
	req.dt = dt
	req.buf = buf
	req.count = count
	if w.cfg.ReqTimeout > 0 {
		// A claimed eager message can still be missing fragments; the
		// janitor fails it like any matched receive.
		req.deadline = time.Now().Add(w.cfg.ReqTimeout)
	}
	req.obsStart = w.obsNow()
	w.mu.Lock()
	if w.closed {
		// The claim is only consumed on success: failing here with the
		// claim already cleared would strand the message — unreceivable
		// (no longer claimed) and unprobeable (not in the unexpected
		// queue).
		w.mu.Unlock()
		return nil, ErrWorkerClosed
	}
	m.claimed = false
	delete(w.claimed, msgKey{m.msg.from, m.msg.id})
	w.startRecvLocked(req, m.msg) // releases w.mu
	return req, nil
}
