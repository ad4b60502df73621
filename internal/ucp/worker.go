package ucp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// Worker is one rank's transport engine: it owns a NIC, a progress
// goroutine, and the two matching queues (posted receives and unexpected
// messages) every MPI implementation carries. Everything in flight is in
// exactly one of the tables below, and what fails it looks there.
type Worker struct {
	nic fabric.NIC
	cfg Config
	fab fabric.Config // the NIC's: fragment size, checksum, epoch, observer

	mu     sync.Mutex
	table  matchTable          // posted receives and blocked probes + unexpected and claimed messages, sharded by peer
	active map[msgKey]*Request // matched receives still consuming fragments
	sends  map[uint64]*Request // sends awaiting the peer's FIN (rendezvous) or ack (reliable eager)
	pulls  map[msgKey]*Request // rendezvous receives mid-pull (dup RTS suppression)
	closed bool

	// The transfer executor (see job), guarded by jobMu, so queueing never
	// waits behind matching. Close closes quit under it.
	jobMu   sync.Mutex
	lanes   []lane              // one queue per source rank, this rank's own for self-sends
	laneCap int                 // pullers a lane may run (see NewWorker)
	idle    []chan *lane        // parked pullers, at most PullStripes, the last parked on top
	retries map[*time.Timer]job // Gets waiting out a retry back-off

	// Reliability state (see reliable.go), guarded by mu.
	completed     map[msgKey]doneRec // recently finished wire messages
	completedFIFO []msgKey
	rng           *rand.Rand // retransmit jitter; guarded by mu

	// Outbound answer queue (see ackPump in reliable.go), guarded by ackMu:
	// eager acks, the FINs that answer duplicate RTSs, and the drain's byes
	// and their answers. The pump starts with the first answer queued;
	// ackClosed stops it.
	ackMu      sync.Mutex
	ackCond    *sync.Cond
	ackQ       []answer
	ackClosed  bool
	ackDrained chan struct{} // made when the pump starts, closed by it once the queue is flushed after ackClosed

	// Failure-notification state (see failure.go). dead is read lock-free
	// on the send/receive hot paths; the rest is guarded by mu.
	live       *liveness        // nil unless Config.Heartbeat enables detection (see liveness.go)
	dead       []atomic.Bool    // per-peer declared-failed flags: the rank's one death record
	deadCount  atomic.Int64     // number of true entries in dead
	onPeerFail []func(rank int) // failure callbacks, invoked outside mu
	poison     []poisonRule     // standing receive-post rejections, guarded by mu
	reaper     *time.Timer      // pending reap of errored unexpected entries (reliable.go), guarded by mu

	// progress is held while a wire packet is delivered (see deliver), and
	// while drainOnClose runs: one packet at a time, whichever goroutine
	// delivers it.
	progress sync.Mutex

	quit    chan struct{} // closed by Close: stops the janitor, fails every Get not yet begun
	nextMsg atomic.Uint64
	wg      sync.WaitGroup
	stats   WorkerStats
	obs     *workerObs // nil when the NIC's Config has no observer (see obs.go)

	link  fabric.Link // the NIC's: what its link loses, where a Get runs, who can exit
	drain *drainState // nil unless the link is CrossProcess (see drain.go)
}

// WorkerStats counts protocol events; all fields are cumulative.
type WorkerStats struct {
	EagerSends     atomic.Int64 // messages sent through the eager path
	RndvSends      atomic.Int64 // messages sent through rendezvous
	SelfSends      atomic.Int64 // loopback messages
	EagerFragments atomic.Int64 // eager fragments put on the wire
	UnexpectedHits atomic.Int64 // receives that matched the unexpected queue
	PostedHits     atomic.Int64 // messages that matched a posted receive

	EagerBytes atomic.Int64 // payload bytes initiated through the eager path
	RndvBytes  atomic.Int64 // payload bytes initiated through rendezvous
	SelfBytes  atomic.Int64 // payload bytes initiated through loopback

	SequentialPulls atomic.Int64 // rendezvous pulls run as one sequential Get
	StripedPulls    atomic.Int64 // rendezvous pulls split into concurrent stripes
	PullStripeSegs  atomic.Int64 // total stripe segments issued by striped pulls

	Retransmits     atomic.Int64 // resend rounds issued by the janitor
	AcksSent        atomic.Int64 // eager acks sent (including resends)
	DupFrags        atomic.Int64 // duplicate eager fragments suppressed
	DupRTS          atomic.Int64 // duplicate RTS control messages suppressed
	CorruptDrops    atomic.Int64 // eager fragments that failed their checksum
	GetRetries      atomic.Int64 // rendezvous Get attempts beyond the first
	StripeFallbacks atomic.Int64 // striped pulls degraded to one sequential Get
	Timeouts        atomic.Int64 // requests failed with ErrTimeout
	AbortsReaped    atomic.Int64 // stale errored unexpected entries reaped
	PeerFailures    atomic.Int64 // peers declared dead on this worker
}

// Stats exposes the worker's protocol counters.
func (w *Worker) Stats() *WorkerStats { return &w.stats }

// Config returns the worker's configuration with its defaults filled in.
func (w *Worker) Config() Config { return w.cfg }

type msgKey struct {
	from int
	id   uint64
}

// sendOp is what a send that outlives its Send call keeps: a rendezvous send
// awaits its FIN (src set), a reliable eager send its ack (payload set), both
// in Worker.sends; a self-send its match (src set). Under Reliable the
// janitor resends what is in the table — the RTS, or every fragment of the
// retained message — until the answer comes or the attempts run out, an
// RTS whose source a Get has read only once a RexmitMax; only its own three
// fields change once a send is there.
type sendOp struct {
	dst        int // the envelope: destination, tag, size, aux word
	tag        Tag
	total, aux int64
	src        SendState // rendezvous (registered under the request's key) and self: the source
	payload    []byte    // eager: the retained packed message
	attempts   int       // resend rounds so far
	next       time.Time // when the janitor resends next (Reliable only)
	served     bool      // rendezvous: the NIC has served a Get of the source (Reliable only)
}

// sendHdr is a rendezvous send's RTS, or a retained eager message's fragment template.
func (r *Request) sendHdr() fabric.Header {
	s := r.send
	h := fabric.Header{Kind: kindEager, Flags: flagReliable, Tag: uint64(s.tag), MsgID: r.msgID, Total: s.total, Aux0: s.aux}
	if s.src != nil {
		h.Kind, h.Flags, h.Aux1 = kindRTS, 0, int64(r.key)
	}
	return h
}

// inbound is what a message's first fragment, RTS or self-send says about
// it: everything matching and binding a receive need.
type inbound struct {
	from     int
	id       uint64
	tag      Tag
	total    int64
	aux0     int64
	reliable bool // sender expects an ack (reliable eager)
}

func inboundOf(pkt *fabric.Packet) inbound {
	return inbound{
		from:     pkt.From,
		id:       pkt.Hdr.MsgID,
		tag:      Tag(pkt.Hdr.Tag),
		total:    pkt.Hdr.Total,
		aux0:     pkt.Hdr.Aux0,
		reliable: pkt.Hdr.Flags&flagReliable != 0,
	}
}

// unexMsg is an inbound message that arrived before a matching receive was
// posted (or a local self-send awaiting a match).
type unexMsg struct {
	inbound

	// Exactly one of these delivery modes applies.
	rndvKey   uint64 // rendezvous: remote memory key (valid if rndv)
	rndv      bool
	frags     []*fabric.Packet // eager: buffered fragments in arrival order
	buffered  int64
	selfReq   *Request  // self-send: the sender's request, which holds the source
	errored   error     // abort received before match
	erroredAt time.Time // when errored was set (reaping)
	claimed   bool
	arriveSeq uint64 // global arrival stamp (see matchTable)

	// inline backs frags until a message has more fragments than it holds,
	// so buffering a short eager message allocates nothing but the entry.
	inline [4]*fabric.Packet
}

func newUnex(in inbound) *unexMsg {
	m := &unexMsg{inbound: in}
	m.frags = m.inline[:0]
	return m
}

// NewWorker attaches a transport worker to a NIC and starts its progress
// goroutine; a NIC that takes the worker's Handoff may also deliver a
// packet on its sender's goroutine while the worker is idle. The eager
// fragment size, fragment checksums, the message-id base (the
// incarnation's Epoch << 40) and the observer come from
// nic.Config(); what the link is — whether a Get is a local copy, whether
// peers are processes that exit on their own — from nic.Link(). The worker
// takes the NIC's peer-down hook: hard evidence (a refused redial to a
// once-connected peer, a higher handshake epoch: the process is gone)
// declares the peer failed, with or without heartbeats; soft evidence (an
// established link broke) makes it suspect when Config.Heartbeat enables
// liveness detection, and ends Close's wait for the peer's drain answer.
func NewWorker(nic fabric.NIC, cfg Config) *Worker {
	w := &Worker{
		nic:     nic,
		cfg:     cfg.withDefaults(),
		fab:     nic.Config(),
		link:    nic.Link(),
		active:  make(map[msgKey]*Request),
		sends:   make(map[uint64]*Request),
		pulls:   make(map[msgKey]*Request),
		dead:    make([]atomic.Bool, nic.Size()),
		quit:    make(chan struct{}),
		lanes:   make([]lane, nic.Size()),
		retries: make(map[*time.Timer]job),
		rng:     rand.New(rand.NewSource(int64(nic.Rank())<<32 | 0x5eed)),
	}
	if w.cfg.Reliable {
		w.completed = make(map[msgKey]doneRec, completedCap)
	}
	w.nextMsg.Store(uint64(w.fab.Epoch) << msgIDEpochShift)
	// PullStripes counts cores, so it caps a lane where a Get is a copy made
	// by the puller. Where a Get waits out a round trip every job gets a
	// puller of its own, as it had a goroutine before the executor.
	w.laneCap = w.cfg.PullStripes
	if !w.link.LocalGet {
		w.laneCap = math.MaxInt
	}
	if w.link.CrossProcess {
		w.drain = newDrainState(nic.Size())
	}
	for i := range w.lanes {
		l := &w.lanes[i]
		l.run = func() { w.puller(l) }
	}
	w.ackCond = sync.NewCond(&w.ackMu)
	w.setupObs(w.fab.Obs)
	w.startLiveness()
	nic.SetPeerDownHook(func(rank int, hard bool) {
		switch {
		case hard:
			w.DeclarePeerFailed(rank)
		case w.live != nil:
			w.suspectPeer(rank)
		}
		if w.drain != nil {
			w.drain.settle(rank)
		}
	})
	// Counted before the offer: a handler running on a sender's goroutine
	// holds the lock the loop needs to exit, so w.wg is never zero under it.
	w.wg.Add(1)
	nic.Handoff(&w.progress, w.deliver)
	go w.loop()
	w.startJanitor()
	return w
}

// Rank returns the worker's fabric rank.
func (w *Worker) Rank() int { return w.nic.Rank() }

// Size returns the number of ranks on the fabric.
func (w *Worker) Size() int { return w.nic.Size() }

// Close shuts the worker down. In-flight operations complete with errors.
// On a link whose peers are separate processes, an unacked worker first
// drains: it returns only once every live peer it sent data frames to has
// taken them in (see drain.go), or after closeDrainBound.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	posted := w.table.takeAllPosted()
	if w.reaper != nil && w.reaper.Stop() {
		w.wg.Done()
	}
	w.mu.Unlock()
	for _, r := range posted {
		r.complete(-1, 0, 0, 0, ErrWorkerClosed)
	}
	w.drainPeers()
	// Under jobMu, so every puller is counted in w.wg before the Wait below
	// and none parks after the idle ones are sent away.
	// A Get waiting out a retry back-off fails now, not when its timer fires.
	// A liveness tick stopped before it ran gives back its count of w.wg.
	w.jobMu.Lock()
	close(w.quit)
	for _, wake := range w.idle {
		wake <- nil
	}
	w.idle = nil
	var late []job
	for t, j := range w.retries {
		if t.Stop() {
			late = append(late, j)
		}
	}
	if w.live != nil && w.live.tick.Stop() {
		w.wg.Done()
	}
	w.jobMu.Unlock()
	for _, j := range late {
		w.jobDone(j.op, ErrWorkerClosed)
		w.wg.Done()
	}
	w.ackMu.Lock()
	w.ackClosed = true
	drained := w.ackDrained
	w.ackMu.Unlock()
	w.ackCond.Broadcast()
	// Flush queued eager acks before tearing down the NIC. The reliable
	// protocol's exit story — a completed send is an acked send, so
	// finish-barrier-then-exit is safe — holds only if this side's acks
	// actually leave before the wire goes away. The ack pump decouples
	// acks from the progress loop, so at close time the queue can still
	// hold the ack for the very message (a barrier release, say) that
	// let this rank finish; dropping it strands the sender retransmitting
	// into a closed endpoint for its whole timeout budget. Bounded wait:
	// if a peer has genuinely wedged the pump, nic.Close below unblocks
	// it and the remaining acks are lost — that peer is failing anyway.
	if drained != nil {
		select {
		case <-drained:
		case <-time.After(3 * time.Second):
		}
	}
	w.nic.Close()
	w.wg.Wait()
}

const (
	kindAbort    fabric.Kind = 10 // sender-side pack failure notification
	kindEagerAck fabric.Kind = 11 // reliable eager completion ack (status in Aux0)
	kindPing     fabric.Kind = 12 // liveness probe (the sender's clock in Aux0)
	kindPong     fabric.Kind = 13 // answer to a ping (its Aux0 echoed)
	// kindBye and kindByeAck (14, 15) are Close's drain, in drain.go.
)

// Send starts a tagged send of (buf, count) with datatype dt to rank dst.
// aux is an opaque value delivered to the receiver alongside the message
// (the point-to-point layer uses it for the custom-datatype packed-part
// length). proto selects or forces the wire protocol.
func (w *Worker) Send(dst int, tag Tag, dt Datatype, buf any, count int64, aux int64, proto Proto) (*Request, error) {
	if dst < 0 || dst >= w.Size() {
		return nil, fmt.Errorf("ucp: destination rank %d out of range [0,%d)", dst, w.Size())
	}
	if w.dead[dst].Load() {
		return nil, procFailedErr(dst)
	}
	req := newRequest(w)
	src, err := req.sendState(dt, buf, count)
	if err != nil {
		return nil, err
	}
	req.isSend = true
	total := src.Size()
	id := w.nextMsg.Add(1)
	req.msgID = id
	req.obsStart = w.obsNow()
	if ap, ok := src.(AuxProvider); ok {
		aux = ap.Aux()
	}

	if dst == w.Rank() {
		w.stats.SelfSends.Add(1)
		w.stats.SelfBytes.Add(total)
		w.ev(obs.EvSend, dst, id, tag, total, traceProtoSelf)
		req.send = &sendOp{dst: dst, tag: tag, total: total, aux: aux, src: src}
		w.selfSend(req)
		return req, nil
	}

	useRndv := proto == ProtoRndv
	if proto == ProtoAuto {
		cost := total
		if rc, ok := src.(fabric.RegionCounter); ok && rc.NumRegions() > 1 {
			cost += int64(rc.NumRegions()-1) * regionCharge
		}
		useRndv = cost > w.cfg.RndvThresh
	}

	if useRndv {
		w.stats.RndvSends.Add(1)
		w.stats.RndvBytes.Add(total)
		w.ev(obs.EvSend, dst, id, tag, total, traceProtoRndv)
		req.key, req.send = w.nic.Register(src), &sendOp{dst: dst, tag: tag, total: total, aux: aux, src: src}
		err := w.trackSend(req)
		if err == nil {
			if err = w.nic.Send(dst, req.sendHdr()); err == nil {
				w.sentFrame(dst)
			}
			// Under Reliable the janitor retransmits the RTS until the FIN
			// arrives, so even a failed first send (link down) just waits
			// its turn. Otherwise the send is undone — unless a failure
			// cause (the peer's death, which a refused frame can be) took it
			// meanwhile and finished it.
			if err == nil || w.cfg.Reliable {
				return req, nil
			}
			if err = w.refused(dst, err); w.takeSend(id, true) == nil {
				return req, nil
			}
		}
		w.finishSend(req, err)
		return nil, err
	}

	// Eager: stream fragments and complete locally — or, when Reliable,
	// retain the packed message and complete on the receiver's ack.
	w.stats.EagerSends.Add(1)
	w.stats.EagerBytes.Add(total)
	w.ev(obs.EvSend, dst, id, tag, total, traceProtoEager)
	packStart := w.obsNow()
	if w.cfg.Reliable {
		req.send = &sendOp{dst: dst, tag: tag, total: total, aux: aux}
		err = w.eagerSendReliable(dst, total, src, req)
	} else {
		if err = w.eagerSend(dst, tag, id, total, aux, src); err != nil {
			err = w.refused(dst, err)
		}
	}
	if w.obs != nil {
		// The eager fragment loop interleaves pack (source reads /
		// staging copies) with wire submission; the combined figure is
		// the sender-side serialization cost per message.
		w.obs.packNS.Observe(time.Since(packStart).Nanoseconds())
	}
	if ferr := src.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		// Notify the receiver so a matched receive does not hang.
		if w.nic.Send(dst, fabric.Header{Kind: kindAbort, Tag: uint64(tag), MsgID: id, Total: total, Aux0: aux}, []byte(err.Error())) == nil {
			w.sentFrame(dst)
		}
		req.complete(dst, tag, 0, aux, err)
		return req, err
	}
	if !w.cfg.Reliable {
		req.complete(dst, tag, total, aux, nil)
	}
	return req, nil
}

// refused says what a frame the NIC refused means. On a lossless link
// nothing between two live endpoints breaks (fabric.Link), so a link that is
// down toward dst is the peer's exit or death: declared here, and reported
// like any send to a dead rank. Elsewhere the error stands.
func (w *Worker) refused(dst int, err error) error {
	if w.link.Lossless && errors.Is(err, fabric.ErrLinkDown) {
		w.DeclarePeerFailed(dst)
		return procFailedErr(dst)
	}
	return err
}

func (w *Worker) eagerSend(dst int, tag Tag, id uint64, total, aux int64, src SendState) error {
	if total == 0 {
		err := w.nic.Send(dst, fabric.Header{Kind: kindEager, Tag: uint64(tag), MsgID: id, Aux0: aux})
		if err == nil {
			w.sentFrame(dst)
		}
		return err
	}
	off := int64(0)
	frag := int64(w.fab.FragSize)
	// Checksummed fragments must be staged so the CRC covers exactly the
	// bytes on the wire; this trades the zero-copy SendFrom path for
	// integrity (the checksum-ablation benchmark quantifies the cost).
	var staging []byte
	if w.fab.Checksum {
		staging = make([]byte, frag)
	}
	for off < total {
		n := min(frag, total-off)
		hdr := fabric.Header{Kind: kindEager, Tag: uint64(tag), MsgID: id, Offset: off, Total: total, Aux0: aux}
		var sent int64
		var err error
		if staging != nil {
			var got int
			got, err = src.ReadAt(staging[:n], off)
			if err != nil && err != io.EOF {
				return err
			}
			if got == 0 {
				return fabric.ErrShortTransfer
			}
			hdr.Flags |= flagCRC
			hdr.Aux1 = int64(fabric.CRC32(staging[:got]))
			sent = int64(got)
			err = w.nic.Send(dst, hdr, staging[:got])
		} else {
			sent, err = w.nic.SendFrom(dst, hdr, src, off, n)
		}
		if err != nil {
			return err
		}
		w.stats.EagerFragments.Add(1)
		w.sentFrame(dst)
		off += sent
	}
	return nil
}

// selfSend matches a local message, or queues it for matching, without
// touching the wire.
func (w *Worker) selfSend(req *Request) {
	in := inbound{from: w.Rank(), id: req.msgID, tag: req.send.tag, total: req.send.total, aux0: req.send.aux}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.finishSend(req, ErrWorkerClosed)
		return
	}
	r, m := w.arriveLocked(in)
	if r != nil {
		w.ev(obs.EvMatch, in.from, in.id, in.tag, in.total, 1)
		w.startTransferLocked(r, in, 0, req) // releases w.mu
		return
	}
	m.selfReq = req
	w.mu.Unlock()
}

// arriveLocked is the one place a message that just arrived meets the
// posted queue, so a blocked probe is matched, and failed, exactly like a
// posted receive. In posting order: every blocked Probe ahead of the taker
// completes with the message's envelope; a receive is returned to be
// started, and no unexpected entry is built; otherwise the message is queued
// — claimed, when a blocked Mprobe was next in line — and returned for the
// caller to say, under the same w.mu, how its bytes come. Caller holds w.mu.
func (w *Worker) arriveLocked(in inbound) (*Request, *unexMsg) {
	for {
		r := w.table.matchPosted(in.from, in.tag)
		switch {
		case r != nil && r.probe == nil:
			return r, nil
		case r != nil && !r.probe.claimed:
			r.completeProbe(in, nil)
			continue
		}
		m := newUnex(in)
		m.claimed = r != nil // r, if any, is the blocked Mprobe next in line
		w.table.addUnexpected(m)
		if r != nil {
			r.completeProbe(in, m)
		}
		return nil, m
	}
}

// admitLocked is what a receive or probe passes before it may match or
// post: the worker is open, and no standing poison (PoisonWhere) covers its
// matching criteria — a poison outranks matching, so an operation on a
// poisoned context fails even if a stray message could satisfy it. Caller
// holds w.mu.
func (w *Worker) admitLocked(from int, tag, mask Tag) error {
	if w.closed {
		return ErrWorkerClosed
	}
	for _, p := range w.poison {
		if p.pred(from, tag, mask) {
			return p.err
		}
	}
	return nil
}

// Recv posts a tagged receive. from restricts the source rank (-1 accepts
// any). mask selects which tag bits participate in matching (use ^Tag(0)
// for exact matching).
func (w *Worker) Recv(from int, tag, mask Tag, dt Datatype, buf any, count int64) (*Request, error) {
	req := newRequest(w)
	req.tag, req.mask, req.from = tag, mask, from
	req.dt, req.buf, req.count = dt, buf, count
	if w.cfg.ReqTimeout > 0 {
		req.deadline = time.Now().Add(w.cfg.ReqTimeout)
	}
	req.obsStart = w.obsNow()
	w.ev(obs.EvPost, from, 0, tag, 0, 0)

	w.mu.Lock()
	if err := w.admitLocked(from, tag, mask); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	if m := w.table.matchUnexpected(req); m != nil {
		w.stats.UnexpectedHits.Add(1)
		w.ev(obs.EvMatch, m.from, m.id, m.tag, m.total, 0)
		w.startRecvLocked(req, m) // releases w.mu
		return req, nil
	}
	// No buffered message can satisfy this receive; if its only possible
	// senders are dead it can never match — fail fast instead of posting
	// a receive that would hang (messages already delivered by a peer
	// before its death were matched above, preserving ULFM semantics).
	if err := w.deadSourceErr(from); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	w.table.addPosted(req)
	w.mu.Unlock()
	return req, nil
}

// CancelRecv removes a posted receive that has not matched yet. It reports
// whether the cancellation won the race with an incoming message.
func (w *Worker) CancelRecv(req *Request) bool {
	w.mu.Lock()
	if w.table.removePosted(req) {
		w.mu.Unlock()
		req.complete(-1, 0, 0, 0, ErrCanceled)
		return true
	}
	w.mu.Unlock()
	return false
}

// matches reports whether message metadata satisfies a posted receive.
func matches(req *Request, from int, tag Tag) bool {
	if req.from >= 0 && req.from != from {
		return false
	}
	return (tag & req.mask) == (req.tag & req.mask)
}

// startRecvLocked binds a matched (request, message) pair and begins
// delivery. The caller must hold w.mu; it is released on return. An eager
// message that can still see traffic — fragments yet to come, or under
// Reliable a retransmission of any — is registered in the active table
// before w.mu drops, so what the progress goroutine routes to it
// serializes with the caller's drain of the buffered fragments through
// req.mu.
func (w *Worker) startRecvLocked(req *Request, m *unexMsg) {
	switch {
	case m.errored != nil:
		w.mu.Unlock()
		w.releaseFrags(m)
		req.complete(m.from, m.tag, 0, m.aux0, m.errored)
		return
	case m.rndv || m.selfReq != nil:
		w.startTransferLocked(req, m.inbound, m.rndvKey, m.selfReq)
		return
	}
	partial := m.buffered < m.total
	req.mu.Lock()
	if partial || w.cfg.Reliable && m.total > 0 {
		w.active[msgKey{m.from, m.id}] = req
		req.tracked = true
	}
	w.mu.Unlock()
	w.bind(req, m.inbound, true, partial)
	frags := m.frags
	m.frags = nil
	w.startEager(req, frags)
}

// startTransferLocked binds req to a message whose bytes a transfer job
// moves — a rendezvous message announced with key, or the self-send self —
// and queues the job. The caller must hold w.mu; it is released on return.
func (w *Worker) startTransferLocked(req *Request, in inbound, key uint64, self *Request) {
	req.mu.Lock()
	if self == nil {
		w.pulls[msgKey{in.from, in.id}] = req
	}
	w.mu.Unlock()
	w.bind(req, in, false, false)
	req.key, req.selfFrom = key, self
	req.mu.Unlock()
	w.enqueue(job{op: req, whole: true})
}

// bind makes req the receive operation of message in and builds its sink.
// partial says some of an eager message's bytes are not in hand yet. The
// caller holds req.mu and not w.mu: datatype state construction may run
// user callbacks.
func (w *Worker) bind(req *Request, in inbound, eager, partial bool) {
	req.msgID = in.id
	req.srcRank, req.srcTag, req.aux0 = in.from, in.tag, in.aux0
	req.msgTotal = in.total
	req.wireEager = eager
	req.reliable = in.reliable
	req.start = w.obsNow()
	sink, err := req.recvState(RecvInfo{From: in.from, Tag: in.tag, Total: in.total, Aux: in.aux0})
	if err != nil {
		req.discard = true
		req.failure = err
	} else {
		req.sink = sink
		req.ordered = 0
		if o, ok := sink.(fabric.OrderedSink); ok {
			req.ordered = o.Ordered()
		}
		if req.ordered > 0 {
			req.pending = make(map[int64]*fabric.Packet)
		}
		if in.total > sink.Size() {
			req.discard = true
			req.failure = fmt.Errorf("%w: %d bytes incoming, %d byte buffer", ErrTruncated, in.total, sink.Size())
		}
	}
	if w.cfg.Reliable && partial && !req.sequential() {
		// A message already whole is finished under req.mu before any
		// retransmitted fragment can be fed to it.
		req.seen = make(map[int64]int64)
	}
}

// startEager feeds a just-bound eager receive the fragments already in
// hand. req.mu is held on entry and released.
func (w *Worker) startEager(req *Request, frags []*fabric.Packet) {
	done := false
	for _, pkt := range frags {
		if w.feedLocked(req, pkt) {
			done = true
		}
	}
	if req.msgTotal == 0 && !req.finished {
		req.finished = true
		done = true
	}
	req.mu.Unlock()
	if done {
		w.finishEager(req)
	}
}

// feed routes one live fragment to the active receive it belongs to.
func (w *Worker) feed(op *Request, pkt *fabric.Packet) {
	op.mu.Lock()
	done := w.feedLocked(op, pkt)
	op.mu.Unlock()
	if done {
		w.finishEager(op)
	}
}

// finishEager completes an eager receive whose last byte arrived.
// finishRecv records the completion before the entry leaves the active
// table; late duplicates meanwhile bounce off the finished flag.
func (w *Worker) finishEager(op *Request) {
	w.finishRecv(op)
	if op.tracked {
		w.mu.Lock()
		delete(w.active, msgKey{op.srcRank, op.msgID})
		w.mu.Unlock()
	}
}

// job is one unit of work of the transfer executor. What the jobs of one
// message share is in its Request.
type job struct {
	op      *Request
	whole   bool  // the transfer of a matched rendezvous or self receive (see transfer)
	off, n  int64 // otherwise: one Get of bytes [off, off+n) of a pull
	attempt int   // Gets of this range that failed so far
}

// lane queues the transfers from one source rank: a peer stalled inside a Get,
// or a slow unpack callback, holds up no other peer's pulls and no self-send.
type lane struct {
	jobs    []job  // queued, from head on, in arrival order
	head    int    // index of the next job to run
	pullers int    // goroutines draining the lane, at most Worker.laneCap
	run     func() // the lane's puller, bound once: starting one allocates nothing
}

func (w *Worker) quitting() bool {
	select {
	case <-w.quit:
		return true
	default:
		return false
	}
}

// enqueue hands a job to its source's lane, where it waits in arrival order
// for one of at most laneCap pullers. A job that finds fewer running wakes a
// parked puller, or starts one if none is parked; a puller that finds its
// lane empty parks while fewer than PullStripes are, and exits otherwise. So
// a ping-pong's pulls run on a goroutine whose stack has already grown, and
// a burst starts pullers once, not one a message. The lane is handed over
// after jobMu is released. Nothing waits on a queued job; once Close has
// begun one runs here, to fail.
func (w *Worker) enqueue(j job) {
	l := &w.lanes[j.op.srcRank]
	w.jobMu.Lock()
	if w.quitting() {
		w.jobMu.Unlock()
		w.run(j)
		return
	}
	if l.head > 0 && len(l.jobs) == cap(l.jobs) {
		n := copy(l.jobs, l.jobs[l.head:])
		clear(l.jobs[n:])
		l.jobs, l.head = l.jobs[:n], 0
	}
	l.jobs = append(l.jobs, j)
	var wake chan *lane
	if l.pullers < w.laneCap {
		l.pullers++
		if n := len(w.idle) - 1; n >= 0 {
			wake = w.idle[n]
			w.idle[n], w.idle = nil, w.idle[:n]
		} else {
			w.wg.Add(1)
			go l.run()
		}
	}
	w.jobMu.Unlock()
	if wake != nil {
		wake <- l
	}
}

// puller drains lane l, then parks, keeping its count of w.wg, until a job
// hands it a lane again or Close sends it nil. wake holds one lane at most:
// a parked puller is taken out of w.idle before it is sent one.
func (w *Worker) puller(l *lane) {
	defer w.wg.Done()
	var wake chan *lane
	for {
		w.jobMu.Lock()
		if l.head == len(l.jobs) {
			l.jobs, l.head = l.jobs[:0], 0
			l.pullers--
			if w.quitting() || len(w.idle) == w.cfg.PullStripes {
				w.jobMu.Unlock()
				return
			}
			if wake == nil {
				wake = make(chan *lane, 1)
			}
			w.idle = append(w.idle, wake)
			w.jobMu.Unlock()
			if l = <-wake; l == nil {
				return
			}
			continue
		}
		j := l.jobs[l.head]
		l.jobs[l.head] = job{}
		l.head++
		w.jobMu.Unlock()
		w.run(j)
	}
}

func (w *Worker) run(j job) {
	if j.whole {
		w.transfer(j.op)
	} else {
		w.get(j)
	}
}

// transfer moves a matched message: a self-send by one local copy, a
// rendezvous message by Get. A pull of at least pullStripeThresh bytes is
// split into PullStripes byte ranges pulled concurrently, putting several
// cores on the pack (ReadAt) and unpack (WriteAt) of one message: this
// puller queues the other stripes and runs the first itself. Both ends must
// take concurrent access at disjoint offsets: memory windows (Bytes, Iov, a
// binding's region tail) index immutable layout tables, non-inorder callbacks
// accept any offset by contract. An ordered prefix (an inorder type's head,
// fabric.OrderedSink) is never split: it is one Get, run here before the
// stripes of what follows it are queued, and only a tail past it of at
// least pullStripeThresh bytes stripes — otherwise the message is one Get.
func (w *Worker) transfer(op *Request) {
	n, self := op.msgTotal, op.selfFrom
	if self != nil && op.failure == nil && n > 0 {
		op.failure = fabric.Transfer(self.send.src, 0, op.sink, 0, n, nil)
	}
	if self != nil || op.failure != nil || n == 0 {
		w.finishRecv(op)
		return
	}
	p := min(op.ordered, n)
	chunk := n - p
	if chunk >= pullStripeThresh {
		stripes := int64(w.cfg.PullStripes)
		chunk = (chunk + stripes - 1) / stripes
	}
	if chunk >= n-p {
		p, chunk = 0, n // one Get, the ordered prefix first
	}
	segs := (n - p + chunk - 1) / chunk
	if segs == 1 {
		w.stats.SequentialPulls.Add(1)
	} else {
		w.stats.StripedPulls.Add(1)
		w.stats.PullStripeSegs.Add(segs)
		w.ev(obs.EvStripes, op.srcRank, op.msgID, op.srcTag, n, segs)
	}
	op.striped, op.jobsLeft = segs > 1, int32(segs)
	if p > 0 {
		if err := w.fetch(job{op: op, n: p}); err != nil {
			op.striped, op.jobsLeft = false, 1
			w.jobDone(op, err)
			return
		}
	}
	for off := p + chunk; off < n; off += chunk {
		w.enqueue(job{op: op, off: off, n: min(chunk, n-off)})
	}
	w.get(job{op: op, off: p, n: min(chunk, n-p)})
}

// jobDone counts one Get job of op finished, with err if it failed for good.
// The job that zeroes the count speaks for the message, so the FIN that
// releases the sender's registration cannot pass a stripe in flight. If a
// stripe ran out of retries, it pulls the striped range again as one Get:
// the sink accepts rewrites there, past its ordered prefix, which already
// landed and is not pulled again.
func (w *Worker) jobDone(op *Request, err error) {
	op.mu.Lock()
	if op.failure == nil {
		op.failure = err
	}
	op.jobsLeft--
	last := op.jobsLeft == 0
	again := last && op.striped && op.failure != nil && !permanent(op.failure)
	if again {
		op.striped, op.failure, op.jobsLeft = false, nil, 1
	}
	op.mu.Unlock()
	switch {
	case again:
		w.stats.StripeFallbacks.Add(1)
		p := min(op.ordered, op.msgTotal)
		w.get(job{op: op, off: p, n: op.msgTotal - p})
	case last:
		w.finishRecv(op)
	}
}

// feedLocked delivers one eager fragment. Caller holds op.mu. It returns
// true exactly once, for the call that completes the message.
func (w *Worker) feedLocked(op *Request, pkt *fabric.Packet) bool {
	if op.finished {
		pkt.Release()
		return false
	}
	write := func(p *fabric.Packet) {
		got := int64(len(p.Payload))
		if op.seen != nil {
			prev, dup := op.seen[p.Hdr.Offset]
			if dup && prev >= got {
				// Full duplicate of an accepted fragment.
				w.stats.DupFrags.Add(1)
				p.Release()
				return
			}
			op.seen[p.Hdr.Offset] = got
			if dup {
				// A truncated copy was accepted earlier; this complete
				// retransmission supersedes it — count only the delta.
				got -= prev
			}
		}
		if !op.discard {
			if _, err := op.sink.WriteAt(p.Payload, p.Hdr.Offset); err != nil {
				op.discard = true
				op.failure = err
			}
		}
		p.Release()
		op.received += got
	}
	if !op.sequential() || op.discard {
		write(pkt)
	} else {
		if pkt.Hdr.Offset < op.next {
			// Sequential sinks already consumed this range; duplicate.
			w.stats.DupFrags.Add(1)
			pkt.Release()
			return false
		}
		if pkt.Hdr.Offset != op.next {
			if held, ok := op.pending[pkt.Hdr.Offset]; ok {
				// Keep whichever copy carries more bytes.
				if len(held.Payload) >= len(pkt.Payload) {
					w.stats.DupFrags.Add(1)
					pkt.Release()
					return false
				}
				held.Release()
			}
			op.pending[pkt.Hdr.Offset] = pkt
			return false
		}
		op.next = pkt.Hdr.Offset + int64(len(pkt.Payload))
		write(pkt)
		for {
			p, ok := op.pending[op.next]
			if !ok {
				break
			}
			delete(op.pending, op.next)
			op.next = p.Hdr.Offset + int64(len(p.Payload))
			write(p)
		}
	}
	if op.received >= op.msgTotal && !op.finished {
		op.finished = true
		return true
	}
	return false
}

// finishRecv completes a matched receive: an eager one after its final
// fragment (or an abort), a rendezvous or self one after its last job. The
// sink is finished first, so the ack or FIN tells the sender what the
// receive's caller is told. Caller holds neither op.mu nor w.mu.
func (w *Worker) finishRecv(op *Request) {
	// Fragments still held back for in-order delivery: the receive failed,
	// or its sender's offsets overlapped.
	for _, p := range op.pending {
		p.Release()
	}
	op.pending = nil
	err, n := op.failure, op.received
	if !op.wireEager {
		n = op.msgTotal
	}
	if op.sink != nil {
		if ferr := op.sink.Finish(); err == nil {
			err = ferr
		}
	}
	status := int64(0)
	if err != nil {
		status, n = 1, 0
	}
	mk := msgKey{op.srcRank, op.msgID}
	switch {
	case op.wireEager:
		if w.obs != nil && !op.start.IsZero() {
			// Receiver-side delivery: match → every fragment consumed and the
			// sink finished (buffered drain + live routing + unpack callbacks).
			w.obs.unpackNS.Observe(time.Since(op.start).Nanoseconds())
		}
		// Record before the ack leaves so a duplicate fragment racing the
		// ack finds the completion record.
		if w.cfg.Reliable {
			w.mu.Lock()
			w.recordCompletedLocked(mk, kindEagerAck, status)
			w.mu.Unlock()
		}
		if op.reliable {
			w.sendAck(op.srcRank, op.msgID, status)
		}
	case op.selfFrom == nil:
		// Recorded in the critical section that drops the pull entry, so a
		// retransmitted RTS (handleRTS checks both) finds one of the two.
		w.mu.Lock()
		w.recordCompletedLocked(mk, kindFIN, status)
		delete(w.pulls, mk)
		w.mu.Unlock()
		if w.nic.Send(op.srcRank, fabric.Header{Kind: kindFIN, MsgID: op.msgID, Aux0: status}) == nil {
			w.sentFrame(op.srcRank)
		}
	}
	op.complete(op.srcRank, op.srcTag, n, op.aux0, err)
	if op.selfFrom != nil {
		w.finishSend(op.selfFrom, err)
	}
}

// releaseFrags returns any buffered wire buffers of an unmatched message.
func (w *Worker) releaseFrags(m *unexMsg) {
	for _, pkt := range m.frags {
		pkt.Release()
	}
	m.frags = nil
}

// loop is the progress goroutine: it delivers what the NIC queued, each
// packet under w.progress, and once the NIC is closed fails what is still
// in flight under it too, so a packet a sender delivered meanwhile is in
// its table before the sweep (and one that comes later finds the NIC
// closed).
func (w *Worker) loop() {
	defer w.wg.Done()
	for {
		pkt, ok := w.nic.Recv()
		w.progress.Lock()
		if !ok {
			w.drainOnClose()
			w.progress.Unlock()
			return
		}
		w.deliver(pkt)
		w.progress.Unlock()
	}
}

// deliver turns one wire packet into matching and delivery events. It runs
// under w.progress: on the progress goroutine, or on a sender's that found
// the worker idle (fabric.NIC.Handoff), which is why nothing it calls sends
// synchronously — answers queue on the ack pump, pongs leave on goroutines
// of their own, transfers run on the pullers. (A pull matched here just as
// Close begins is failed on the spot by enqueue, FIN included; no Send call
// site holds a worker lock, so that FIN cannot wedge the rank it reaches.)
// Under liveness detection every packet also stamps its sender as heard
// from.
func (w *Worker) deliver(pkt *fabric.Packet) {
	if w.live != nil {
		w.live.seen(pkt.From)
	}
	w.handle(pkt)
}

// drainOnClose fails everything still in flight when the NIC closes
// (Close itself failed what was posted). A claimed message goes with the
// rest of the unexpected queue: an MRecv from here on fails with
// ErrWorkerClosed.
func (w *Worker) drainOnClose() {
	w.mu.Lock()
	active := w.active
	w.active = make(map[msgKey]*Request)
	sends := w.sends
	w.sends = make(map[uint64]*Request)
	unex := w.table.takeAllUnexpected()
	w.mu.Unlock()
	for _, op := range active {
		w.failActive(op, ErrWorkerClosed)
	}
	for _, s := range sends {
		w.finishSend(s, ErrWorkerClosed)
	}
	for _, m := range unex {
		w.releaseFrags(m)
		if m.selfReq != nil {
			w.finishSend(m.selfReq, ErrWorkerClosed)
		}
	}
}

// failActive fails a matched eager receive that was taken out of w.active
// (or is about to leave it with the worker), unless it finished meanwhile;
// it reports whether this call failed it.
func (w *Worker) failActive(op *Request, err error) bool {
	if !op.fail(err) {
		return false
	}
	w.finishRecv(op)
	return true
}

func (w *Worker) handle(pkt *fabric.Packet) {
	switch pkt.Hdr.Kind {
	case kindEager:
		w.handleEager(pkt)
	case kindRTS:
		w.handleRTS(pkt)
	case kindFIN, kindEagerAck:
		w.handleAnswer(pkt)
	case kindAbort:
		w.handleAbort(pkt)
	case kindPing, kindPong:
		w.handleHeartbeat(pkt)
	case kindBye, kindByeAck:
		w.handleBye(pkt)
	default:
		pkt.Release()
	}
}

// bufferLocked holds one more fragment (nil: none, the message is empty) on
// a buffered message and, once a reliable eager message is whole,
// acknowledges it. An eager send is complete once the data is safely held
// at the receiver — MPI's local-completion contract — so the ack must NOT
// wait for the application to post a matching receive: a receiver busy
// elsewhere (a recovery protocol, a skewed collective schedule) would
// otherwise stall the sender into retransmission exhaustion and a spurious
// ErrTimeout. The check is idempotent on purpose: a retransmitted fragment
// arriving because the ack was lost triggers a fresh ack (duplicate acks
// find no send waiting and are ignored). Caller holds w.mu, which is
// released before the ack is queued.
func (w *Worker) bufferLocked(m *unexMsg, pkt *fabric.Packet) {
	if pkt != nil {
		m.reliable = m.reliable || pkt.Hdr.Flags&flagReliable != 0
		m.buffered += w.addFragDedup(m, pkt)
	}
	ack := m.reliable && !m.rndv && m.selfReq == nil &&
		m.errored == nil && m.buffered >= m.total
	w.mu.Unlock()
	if ack {
		w.sendAck(m.from, m.id, 0)
	}
}

func (w *Worker) handleEager(pkt *fabric.Packet) {
	// Headers come from another process: one that does not describe a
	// range inside its own message has no receive to go to.
	if h := &pkt.Hdr; h.Total < 0 || h.Offset < 0 || h.Offset > h.Total-int64(len(pkt.Payload)) {
		w.stats.CorruptDrops.Add(1)
		pkt.Release()
		return
	}
	if !w.verifyFragCRC(pkt) {
		return // consumed: dropped for retransmit, or routed as a failure
	}
	in := inboundOf(pkt)
	key := msgKey{in.from, in.id}
	w.mu.Lock()
	// A fragment of an already-completed message is a retransmission that
	// crossed our ack on the wire: answer with a fresh ack, do not
	// redeliver. Checked in the same critical section as the active table
	// — completion records the message before removing it from active, so
	// a duplicate always hits one of the two.
	if w.cfg.Reliable {
		if rec, ok := w.completed[key]; ok {
			w.mu.Unlock()
			w.stats.DupFrags.Add(1)
			pkt.Release()
			if in.reliable && rec.kind == kindEagerAck {
				w.sendAck(key.from, key.id, rec.status)
			}
			return
		}
	}
	if op, ok := w.active[key]; ok {
		w.mu.Unlock()
		w.feed(op, pkt)
		return
	}
	first := pkt.Hdr.Offset == 0
	// A later fragment, or — under Reliable — a retransmitted first one
	// that raced ahead, of a message already buffered: hold it there.
	if m := w.table.findUnexpected(key); m != nil && (!first || w.cfg.Reliable || m.claimed) {
		if m.rndv {
			// The id names a message announced by RTS: it has no
			// fragments, and the receive that pulls it would never
			// release one held here.
			w.mu.Unlock()
			w.stats.CorruptDrops.Add(1)
			pkt.Release()
			return
		}
		w.bufferLocked(m, pkt) // releases w.mu
		return
	}
	// Under Reliable a later fragment can beat the first one here; it
	// opens the message just the same (same tag either way), so nothing
	// is lost. Otherwise a fragment with no home belongs to a message
	// that was dropped.
	if !first && !(w.cfg.Reliable && in.reliable) {
		w.mu.Unlock()
		pkt.Release()
		return
	}
	// A fragment that finds its receive posted is delivered from its
	// header: no unexpected entry is built.
	req, m := w.arriveLocked(in)
	if req != nil {
		w.stats.PostedHits.Add(1)
		w.ev(obs.EvMatch, in.from, in.id, in.tag, in.total, 1)
		req.mu.Lock()
		partial := int64(len(pkt.Payload)) < in.total
		if partial {
			// More fragments follow. A message that is whole already is
			// finished before w.progress lets another packet be routed, so
			// nothing could find it in the table.
			w.active[key] = req
			req.tracked = true
		}
		w.mu.Unlock()
		w.bind(req, in, true, partial)
		if in.total == 0 {
			pkt.Release()
			w.startEager(req, nil)
		} else {
			w.startEager(req, []*fabric.Packet{pkt})
		}
		return
	}
	if in.total == 0 {
		pkt.Release()
		pkt = nil
	}
	w.bufferLocked(m, pkt) // releases w.mu
}

func (w *Worker) handleRTS(pkt *fabric.Packet) {
	in := inboundOf(pkt)
	rndvKey := uint64(pkt.Hdr.Aux1)
	pkt.Release()
	if in.total < 0 {
		w.stats.CorruptDrops.Add(1)
		return
	}
	key := msgKey{in.from, in.id}
	w.mu.Lock()
	if w.cfg.Reliable {
		// Retransmitted RTS: if the pull already finished, the FIN was
		// lost — resend it, through the ack pump like every answer the
		// progress goroutine gives. If the pull is running or the message
		// is still buffered awaiting a match, the original RTS is in hand.
		// finishRecv records and drops the pull in one critical section,
		// so a duplicate always hits at least one check.
		rec, done := w.completed[key]
		_, running := w.pulls[key]
		if fin := done && rec.kind == kindFIN; fin || running || w.table.findUnexpected(key) != nil {
			w.mu.Unlock()
			w.stats.DupRTS.Add(1)
			if fin {
				w.queueAnswer(answer{to: key.from, kind: kindFIN, id: key.id, status: rec.status})
			}
			return
		}
	}
	// An RTS that finds its receive posted starts the pull from its
	// header: no unexpected entry is built.
	req, m := w.arriveLocked(in)
	if req != nil {
		w.stats.PostedHits.Add(1)
		w.ev(obs.EvMatch, in.from, in.id, in.tag, in.total, 1)
		w.startTransferLocked(req, in, rndvKey, nil) // releases w.mu
		return
	}
	m.rndv, m.rndvKey = true, rndvKey
	w.mu.Unlock()
}

// handleAnswer completes the send a FIN (rendezvous) or an eager ack
// answers. A duplicate answer, or one of the wrong kind for the send its id
// names, finds nothing to take and is ignored.
func (w *Worker) handleAnswer(pkt *fabric.Packet) {
	id, status, rndv := pkt.Hdr.MsgID, pkt.Hdr.Aux0, pkt.Hdr.Kind == kindFIN
	pkt.Release()
	s := w.takeSend(id, rndv)
	if s == nil {
		return
	}
	var err error
	if status != 0 {
		err = errors.New("ucp: remote receive failed")
	}
	w.finishSend(s, err)
}

// trackSend enters a send in w.sends, where its answer, the janitor and
// every failure cause find it. Caller must not hold w.mu.
func (w *Worker) trackSend(r *Request) error {
	if w.cfg.Reliable {
		r.send.next = time.Now().Add(w.rexmitBackoff().Delay(0, nil))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWorkerClosed
	}
	w.sends[r.msgID] = r
	return nil
}

// takeSend removes and returns the rendezvous (rndv) or reliable eager send
// id names, if it is still waiting. Whoever takes a send out of w.sends
// finishes it.
func (w *Worker) takeSend(id uint64, rndv bool) *Request {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.sends[id]
	if r == nil || (r.send.src != nil) != rndv {
		return nil
	}
	delete(w.sends, id)
	return r
}

// finishSend completes a send taken out of w.sends (or never entered) or a
// self-send: a source still bound is given back, a rendezvous one after its
// registration, and err, if any, says why nothing was transferred.
func (w *Worker) finishSend(r *Request, err error) {
	s := r.send
	total := s.total
	if s.src != nil {
		if s.dst != w.Rank() {
			w.nic.Deregister(r.key)
		}
		if ferr := s.src.Finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		total = 0
	}
	r.complete(s.dst, s.tag, total, s.aux, err)
}

func (w *Worker) handleAbort(pkt *fabric.Packet) {
	in := inboundOf(pkt)
	key := msgKey{in.from, in.id}
	err := fmt.Errorf("ucp: sender aborted: %s", string(pkt.Payload))
	pkt.Release()
	w.mu.Lock()
	if op, ok := w.active[key]; ok {
		delete(w.active, key)
		w.mu.Unlock()
		w.failActive(op, err)
		return
	}
	m := w.table.findUnexpected(key)
	if m == nil {
		// Abort for a message whose first fragment never arrived (or was
		// already consumed): it meets the posted queue like any arrival, so
		// a receive waiting for it fails now; otherwise it is recorded as an
		// errored unexpected message so a future receive fails instead of
		// hanging. The reaper drops the entry after abortLinger if no
		// receive ever claims it.
		var req *Request
		if req, m = w.arriveLocked(in); req != nil {
			w.mu.Unlock()
			req.complete(in.from, in.tag, 0, in.aux0, err)
			return
		}
	}
	w.markErrored(m, err)
	w.mu.Unlock()
}
