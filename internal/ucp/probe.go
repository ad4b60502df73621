package ucp

import (
	"fmt"
	"time"
)

// Message describes a probed inbound message. A Message returned by Mprobe
// is claimed: it is no longer visible to matching and must be consumed with
// MRecv (the MPI_Mprobe/MPI_Mrecv pattern the paper's Python discussion
// revolves around). Until then the message stays in the unexpected queue,
// flagged claimed, where late fragments and failure sweeps still find it.
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
// when nothing matches.
//
// A blocking probe that finds nothing buffered is a posted request: it
// passes the checks a Recv passes, takes its place in the posted queue, and
// from there everything that fails a posted receive fails it the same way —
// Config.ReqTimeout (ErrTimeout), a dead source (ErrProcFailed),
// AbortWhere/PoisonWhere (their error) and Close (ErrWorkerClosed). The
// arrival that satisfies it completes it and goes on to the receive posted
// after it, if any.
func (w *Worker) Probe(from int, tag, mask Tag, block bool) (*Message, error) {
	return w.probe(from, tag, mask, block, false)
}

// Mprobe is Probe plus claim: the matched message is hidden from matching
// and reserved for a later MRecv. A blocked Mprobe takes the arrival that
// satisfies it, so a receive posted after it stays posted.
func (w *Worker) Mprobe(from int, tag, mask Tag, block bool) (*Message, error) {
	return w.probe(from, tag, mask, block, true)
}

func (w *Worker) probe(from int, tag, mask Tag, block, claim bool) (*Message, error) {
	crit := &Request{tag: tag, mask: mask, from: from} // stays on the stack
	w.mu.Lock()
	if err := w.admitLocked(from, tag, mask); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	if m := w.table.probeEarliest(crit); m != nil {
		found := &Message{From: m.from, Tag: m.tag, Total: m.total, Aux0: m.aux0, w: w, msg: m, claimed: claim}
		if claim {
			w.table.claim(m)
		}
		w.mu.Unlock()
		return found, nil
	}
	// Nothing buffered can satisfy the probe; if its only possible senders
	// are declared dead, no message ever will.
	if err := w.deadSourceErr(from); err != nil || !block {
		w.mu.Unlock()
		return nil, err
	}
	req := newRequest(w)
	req.tag, req.mask, req.from = tag, mask, from
	req.probe = &Message{w: w, claimed: claim}
	if w.cfg.ReqTimeout > 0 {
		req.deadline = time.Now().Add(w.cfg.ReqTimeout)
	}
	w.table.addPosted(req)
	w.mu.Unlock()
	if err := req.Wait(); err != nil {
		return nil, err
	}
	return req.probe, nil
}

// completeProbe completes a blocked probe with the message that satisfied
// it; m is what MRecv will consume (only a claim needs it). The worker lock
// may be held: nothing here blocks or calls out.
func (r *Request) completeProbe(in inbound, m *unexMsg) {
	p := r.probe
	p.From, p.Tag, p.Total, p.Aux0, p.msg = in.from, in.tag, in.total, in.aux0, m
	r.complete(in.from, in.tag, in.total, in.aux0, nil)
}

// MRecv receives a message claimed by Mprobe into (buf, count) with
// datatype dt.
func (w *Worker) MRecv(m *Message, dt Datatype, buf any, count int64) (*Request, error) {
	if m == nil || !m.claimed || m.w != w {
		return nil, fmt.Errorf("ucp: MRecv requires a message claimed by Mprobe on this worker")
	}
	req := newRequest(w)
	req.dt, req.buf, req.count = dt, buf, count
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
	w.table.removeUnexpected(m.msg)
	w.startRecvLocked(req, m.msg) // releases w.mu
	return req, nil
}
