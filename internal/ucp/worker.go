package ucp

import (
	"errors"
	"fmt"
	"io"
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

	mu     sync.Mutex
	table  matchTable          // posted receives and blocked probes + unexpected and claimed messages, sharded by peer
	active map[msgKey]*Request // matched receives still consuming fragments
	sends  map[uint64]*sendOp  // sends awaiting the peer's FIN (rendezvous) or ack (reliable eager)
	pulls  map[msgKey]*Request // rendezvous receives mid-pull (dup RTS suppression)
	closed bool

	// Reliability state (see reliable.go), guarded by mu.
	completed     map[msgKey]doneRec // recently finished wire messages
	completedFIFO []msgKey
	rng           *rand.Rand // retransmit jitter; guarded by mu

	// Outbound eager-ack queue (see ackPump in reliable.go), guarded by
	// ackMu. ackClosed stops the pump.
	ackMu      sync.Mutex
	ackCond    *sync.Cond
	ackQ       []ackItem
	ackClosed  bool
	ackDrained chan struct{} // closed by ackPump once the queue is flushed after ackClosed

	// Failure-notification state (see failure.go). dead is read lock-free
	// on the send/receive hot paths; the rest is guarded by mu.
	det        *fabric.Detector // nil unless Config.Heartbeat enables detection
	dead       []atomic.Bool    // per-peer declared-failed flags
	deadCount  atomic.Int64     // number of true entries in dead
	onPeerFail []func(rank int) // failure callbacks, invoked outside mu
	poison     []poisonRule     // standing receive-post rejections, guarded by mu

	quit    chan struct{} // stops the janitor
	nextMsg atomic.Uint64
	wg      sync.WaitGroup
	stats   WorkerStats
	obs     *workerObs // nil when Config.Obs is unset (see obs.go)
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

type msgKey struct {
	from int
	id   uint64
}

// sendOp is a send awaiting the peer's answer: a rendezvous send its FIN
// (src and key set), a reliable eager send its ack (payload set). Under
// Reliable the janitor resends it — the RTS, or every fragment of the
// retained message — until the answer comes or the attempts run out.
type sendOp struct {
	req *Request
	dst int
	hdr fabric.Header // the RTS, or the template of every eager fragment

	src SendState // rendezvous: the registered source; nil for eager
	key uint64    // rendezvous: its memory key

	payload []byte // eager: the retained packed message

	attempts int       // resend rounds so far
	next     time.Time // when the janitor resends next (Reliable only)
}

// rndv reports whether the send is answered by a FIN, not an ack.
func (s *sendOp) rndv() bool { return s.src != nil }

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
	selfSrc   SendState // self-send: local source
	selfReq   *Request  // self-send: the sender's request
	errored   error     // abort received before match
	erroredAt time.Time // when errored was set (janitor reaping)
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
// goroutine. When Config.Heartbeat enables liveness detection the NIC is
// wrapped with a fabric.Detector whose death verdicts feed
// DeclarePeerFailed.
func NewWorker(nic fabric.NIC, cfg Config) *Worker {
	w := &Worker{
		nic:    nic,
		cfg:    cfg.withDefaults(),
		active: make(map[msgKey]*Request),
		sends:  make(map[uint64]*sendOp),
		pulls:  make(map[msgKey]*Request),
		dead:   make([]atomic.Bool, nic.Size()),
		quit:   make(chan struct{}),
	}
	if w.cfg.Reliable {
		w.completed = make(map[msgKey]doneRec, completedCap)
		w.rng = rand.New(rand.NewSource(int64(nic.Rank())<<32 | 0x5eed))
	}
	w.nextMsg.Store(w.cfg.MsgIDBase)
	w.ackCond = sync.NewCond(&w.ackMu)
	w.ackDrained = make(chan struct{})
	w.wg.Add(1)
	go w.ackPump()
	w.setupObs(w.cfg.Obs)
	if hb := w.cfg.Heartbeat; hb.Period > 0 {
		if hb.Obs == nil && w.cfg.Obs != nil {
			hb.Obs = w.cfg.Obs.Registry
		}
		w.det = fabric.NewDetector(nic, hb)
		w.det.OnDead(w.DeclarePeerFailed)
		w.nic = w.det
	} else {
		// No detector, but the provider can still report hard link-level
		// death evidence (a refused redial to a peer that was connected:
		// its process is gone). Feed it straight into failure
		// notification so cross-process death fails fast even without
		// heartbeats. Soft evidence needs the detector's state machine to
		// mean anything; ignore it here.
		nic.SetPeerDownHook(func(rank int, hard bool) {
			if hard {
				w.DeclarePeerFailed(rank)
			}
		})
	}
	w.wg.Add(1)
	go w.loop()
	w.startJanitor()
	if w.det != nil {
		w.det.Start()
	}
	return w
}

// Detector exposes the worker's liveness detector (nil when heartbeats
// are disabled).
func (w *Worker) Detector() *fabric.Detector { return w.det }

// Rank returns the worker's fabric rank.
func (w *Worker) Rank() int { return w.nic.Rank() }

// Size returns the number of ranks on the fabric.
func (w *Worker) Size() int { return w.nic.Size() }

// Close shuts the worker down. In-flight operations complete with errors.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	posted := w.table.takeAllPosted()
	w.mu.Unlock()
	close(w.quit)
	w.ackMu.Lock()
	w.ackClosed = true
	w.ackMu.Unlock()
	w.ackCond.Broadcast()
	for _, r := range posted {
		r.complete(-1, 0, 0, 0, ErrWorkerClosed)
	}
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
	select {
	case <-w.ackDrained:
	case <-time.After(3 * time.Second):
	}
	w.nic.Close()
	w.wg.Wait()
}

const (
	kindAbort    fabric.Kind = 10 // sender-side pack failure notification
	kindEagerAck fabric.Kind = 11 // reliable eager completion ack (status in Aux0)
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
		w.selfSend(req, src, Tag(tag), total, aux, id)
		return req, nil
	}

	useRndv := false
	switch proto {
	case ProtoRndv:
		useRndv = true
	case ProtoEager:
	default:
		if pc, ok := src.(ProtoChooser); ok {
			proto = pc.ChooseProto(total, w.cfg.RndvThresh, w.cfg.IovRndvMin)
		}
		switch {
		case proto == ProtoRndv:
			useRndv = true
		case proto == ProtoEager:
		case total > w.cfg.RndvThresh:
			useRndv = true
		default:
			if rc, ok := fabric.Source(src).(fabric.RegionCounter); ok && rc.NumRegions() > 1 && total >= w.cfg.IovRndvMin {
				// Region lists only reach zero-copy through the pull path.
				useRndv = true
			}
		}
	}

	if useRndv {
		w.stats.RndvSends.Add(1)
		w.stats.RndvBytes.Add(total)
		w.ev(obs.EvSend, dst, id, tag, total, traceProtoRndv)
		key := w.nic.Register(src)
		s := &sendOp{req: req, dst: dst, src: src, key: key,
			hdr: fabric.Header{Kind: kindRTS, Tag: uint64(tag), MsgID: id, Total: total, Aux0: aux, Aux1: int64(key)}}
		err := w.trackSend(s)
		if err == nil {
			err = w.nic.Send(dst, s.hdr)
			// Under Reliable the janitor retransmits the RTS until the FIN
			// arrives, so even a failed first send (link down) just waits
			// its turn. Otherwise the send is undone — unless a failure
			// cause took it meanwhile and finished it.
			if err == nil || w.cfg.Reliable || w.takeSend(id, true) == nil {
				return req, nil
			}
		}
		w.finishSend(s, err)
		return nil, err
	}

	// Eager: stream fragments and complete locally — or, when Reliable,
	// retain the packed message and complete on the receiver's ack.
	w.stats.EagerSends.Add(1)
	w.stats.EagerBytes.Add(total)
	w.ev(obs.EvSend, dst, id, tag, total, traceProtoEager)
	packStart := w.obsNow()
	if w.cfg.Reliable {
		err = w.eagerSendReliable(dst, tag, id, total, aux, src, req)
	} else {
		err = w.eagerSend(dst, tag, id, total, aux, src)
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
		_ = w.nic.Send(dst, fabric.Header{Kind: kindAbort, Tag: uint64(tag), MsgID: id, Total: total, Aux0: aux}, []byte(err.Error()))
		req.complete(dst, tag, 0, aux, err)
		return req, err
	}
	if !w.cfg.Reliable {
		req.complete(dst, tag, total, aux, nil)
	}
	return req, nil
}

func (w *Worker) eagerSend(dst int, tag Tag, id uint64, total, aux int64, src SendState) error {
	if total == 0 {
		hdr := fabric.Header{Kind: kindEager, Tag: uint64(tag), MsgID: id, Offset: 0, Total: 0, Aux0: aux}
		return w.nic.Send(dst, hdr)
	}
	off := int64(0)
	frag := int64(w.cfg.FragSize)
	// Checksummed fragments must be staged so the CRC covers exactly the
	// bytes on the wire; this trades the zero-copy SendFrom path for
	// integrity (the checksum-ablation benchmark quantifies the cost).
	var staging []byte
	if w.cfg.Checksum {
		staging = make([]byte, frag)
	}
	for off < total {
		n := frag
		if rem := total - off; n > rem {
			n = rem
		}
		hdr := fabric.Header{Kind: kindEager, Tag: uint64(tag), MsgID: id, Offset: off, Total: total, Aux0: aux}
		if off > 0 && off+n < total {
			hdr.Flags = fabric.FlagUnordered
		}
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
		off += sent
	}
	return nil
}

// selfSend queues a local message for matching without touching the wire.
func (w *Worker) selfSend(req *Request, src SendState, tag Tag, total, aux int64, id uint64) {
	m := newUnex(inbound{from: w.Rank(), id: id, tag: tag, total: total, aux0: aux})
	m.selfSrc, m.selfReq = src, req
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		src.Finish()
		req.complete(-1, 0, 0, 0, ErrWorkerClosed)
		return
	}
	if r, _ := w.arriveLocked(m.inbound, m); r != nil {
		w.ev(obs.EvMatch, m.from, m.id, m.tag, m.total, 1)
		w.startRecvLocked(r, m) // releases w.mu
		return
	}
	w.mu.Unlock()
}

// arriveLocked is the one place a message that just arrived meets the
// posted queue, so a blocked probe is matched, and failed, exactly like a
// posted receive. In posting order: every blocked Probe ahead of the taker
// completes with the message's envelope; a receive is returned to be
// started; otherwise the message (m, built from in when nil) is queued —
// claimed, when a blocked Mprobe was next in line — and returned for its
// bytes to be buffered. Caller holds w.mu.
func (w *Worker) arriveLocked(in inbound, m *unexMsg) (*Request, *unexMsg) {
	for {
		r := w.table.matchPosted(in.from, in.tag)
		switch {
		case r != nil && r.probe == nil:
			return r, m
		case r != nil && !r.probe.claimed:
			r.completeProbe(in, nil)
			continue
		}
		if m == nil {
			m = newUnex(in)
		}
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
	req.tag = tag
	req.mask = mask
	req.from = from
	req.dt = dt
	req.buf = buf
	req.count = count
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
	if m.errored != nil {
		w.mu.Unlock()
		w.releaseFrags(m)
		req.complete(m.from, m.tag, 0, m.aux0, m.errored)
		return
	}
	eager := m.selfSrc == nil && !m.rndv
	partial := eager && m.buffered < m.total
	req.mu.Lock()
	switch {
	case m.rndv:
		w.pulls[msgKey{m.from, m.id}] = req
	case partial || eager && w.cfg.Reliable && m.total > 0:
		w.active[msgKey{m.from, m.id}] = req
		req.tracked = true
	}
	w.mu.Unlock()
	w.bind(req, m.inbound, eager, partial)
	switch {
	case m.selfSrc != nil:
		req.mu.Unlock()
		w.wg.Add(1)
		go w.runSelf(req, m)
	case m.rndv:
		req.mu.Unlock()
		w.wg.Add(1)
		go w.runPull(req, m.rndvKey)
	default:
		frags := m.frags
		m.frags = nil
		w.startEager(req, frags)
	}
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
		if ss, ok := fabric.Sink(sink).(fabric.SequentialSink); ok && ss.Sequential() {
			req.sequential = true
			req.pending = make(map[int64]*fabric.Packet)
		}
		if in.total > sink.Size() {
			req.discard = true
			req.failure = fmt.Errorf("%w: %d bytes incoming, %d byte buffer", ErrTruncated, in.total, sink.Size())
		}
	}
	if w.cfg.Reliable && partial && !req.sequential {
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

// runSelf completes a matched self-send by local transfer.
func (w *Worker) runSelf(op *Request, m *unexMsg) {
	defer w.wg.Done()
	err := op.failure
	n := op.msgTotal
	if err == nil && n > 0 {
		err = fabric.Transfer(m.selfSrc, 0, op.sink, 0, n, nil)
	}
	if err != nil {
		n = 0
	}
	if op.sink != nil {
		if ferr := op.sink.Finish(); err == nil {
			err = ferr
		}
	}
	op.complete(op.srcRank, op.srcTag, n, op.aux0, err)
	w.finishSelf(m, err)
}

// finishSelf completes the send side of a self message, if any.
func (w *Worker) finishSelf(m *unexMsg, err error) {
	if m.selfSrc == nil {
		return
	}
	if ferr := m.selfSrc.Finish(); err == nil {
		err = ferr
	}
	m.selfReq.complete(w.Rank(), m.tag, m.total, m.aux0, err)
	m.selfSrc = nil
}

// runPull executes the rendezvous receive: pull (striped when the
// datatype contract allows), FIN after every byte landed, complete.
func (w *Worker) runPull(op *Request, key uint64) {
	defer w.wg.Done()
	err := op.failure
	n := op.msgTotal
	if err == nil && n > 0 {
		err = w.pullBody(op, key, n)
	}
	status := int64(0)
	if err != nil {
		status = 1
		n = 0
	}
	mk := msgKey{op.srcRank, op.msgID}
	// Record completion before dropping the pull entry: handleRTS checks
	// both under one lock, so a retransmitted RTS always finds at least
	// one of them and never redelivers.
	w.recordCompleted(mk, kindFIN, status)
	w.mu.Lock()
	delete(w.pulls, mk)
	w.mu.Unlock()
	_ = w.nic.Send(op.srcRank, fabric.Header{Kind: kindFIN, MsgID: op.msgID, Aux0: status})
	if op.sink != nil {
		if ferr := op.sink.Finish(); err == nil {
			err = ferr
		}
	}
	op.complete(op.srcRank, op.srcTag, n, op.aux0, err)
}

// pullBody moves the rendezvous message body. Transfers of at least
// PullStripeThresh bytes whose sink tolerates out-of-order delivery are
// split into PullStripes byte ranges pulled concurrently, putting
// multiple cores on the sender-side pack (ReadAt) and receiver-side
// unpack (WriteAt) of one message. Sequential sinks — the inorder
// contract — and small transfers take the single-Get path unchanged.
//
// The stripe fan-out relies on both endpoints being safe for concurrent
// access at disjoint offsets: sources/sinks built from memory windows
// (Bytes, Iov, the region tail of a core binding) index immutable layout
// tables, and non-inorder pack/unpack callbacks accept arbitrary-offset
// fragments by contract, so disjoint stripes never share mutable state.
func (w *Worker) pullBody(op *Request, key uint64, n int64) error {
	stripes := int64(w.cfg.PullStripes)
	if op.sequential || stripes <= 1 || n < w.cfg.PullStripeThresh {
		w.stats.SequentialPulls.Add(1)
		return w.getRetry(op.srcRank, key, 0, op.sink, 0, n, op.sequential)
	}
	if stripes > n {
		stripes = n
	}
	chunk := (n + stripes - 1) / stripes
	w.stats.StripedPulls.Add(1)
	w.ev(obs.EvStripes, op.srcRank, op.msgID, op.srcTag, n, (n+chunk-1)/chunk)
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	for off := int64(0); off < n; off += chunk {
		span := chunk
		if rem := n - off; span > rem {
			span = rem
		}
		w.stats.PullStripeSegs.Add(1)
		wg.Add(1)
		go func(off, span int64) {
			defer wg.Done()
			if err := w.getRetry(op.srcRank, key, off, op.sink, off, span, false); err != nil {
				errMu.Lock()
				if first == nil {
					first = err
				}
				errMu.Unlock()
			}
		}(off, span)
	}
	// Join every stripe before returning: the FIN that releases the
	// sender's registration must not race an in-flight stripe.
	wg.Wait()
	if first == nil {
		return nil
	}
	if errors.Is(first, fabric.ErrBadKey) || errors.Is(first, fabric.ErrClosed) {
		return first
	}
	// Graceful degradation: a stripe exhausted its retries, so re-pull
	// the whole range as one sequential Get. Non-sequential sinks accept
	// rewrites at already-covered offsets, so restarting from zero is
	// contract-safe.
	w.stats.StripeFallbacks.Add(1)
	return w.getRetry(op.srcRank, key, 0, op.sink, 0, n, false)
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
	if !op.sequential || op.discard {
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

// finishRecv completes an eager receive after its final fragment (or an
// abort). Caller must not hold op.mu or w.mu.
func (w *Worker) finishRecv(op *Request) {
	// Fragments still held back for in-order delivery: the receive failed,
	// or its sender's offsets overlapped.
	for _, p := range op.pending {
		p.Release()
	}
	op.pending = nil
	err := op.failure
	n := op.received
	if err != nil {
		n = 0
	}
	if op.sink != nil {
		if ferr := op.sink.Finish(); err == nil {
			err = ferr
		}
	}
	if w.obs != nil && !op.start.IsZero() {
		// Receiver-side delivery: match → every fragment consumed and the
		// sink finished (buffered drain + live routing + unpack callbacks).
		w.obs.unpackNS.Observe(time.Since(op.start).Nanoseconds())
	}
	if op.wireEager {
		status := int64(0)
		if err != nil {
			status = 1
		}
		// Record before the ack leaves so a duplicate fragment racing the
		// ack finds the completion record.
		w.recordCompleted(msgKey{op.srcRank, op.msgID}, kindEagerAck, status)
		if op.reliable {
			w.sendAck(op.srcRank, op.msgID, status)
		}
	}
	op.complete(op.srcRank, op.srcTag, n, op.aux0, err)
}

// releaseFrags returns any buffered wire buffers of an unmatched message.
func (w *Worker) releaseFrags(m *unexMsg) {
	for _, pkt := range m.frags {
		pkt.Release()
	}
	m.frags = nil
}

// loop is the progress goroutine: it turns wire packets into matching and
// delivery events.
func (w *Worker) loop() {
	defer w.wg.Done()
	for {
		pkt, ok := w.nic.Recv()
		if !ok {
			w.drainOnClose()
			return
		}
		w.handle(pkt)
	}
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
	w.sends = make(map[uint64]*sendOp)
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
		w.finishSelf(m, ErrWorkerClosed)
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
	ack := m.reliable && !m.rndv && m.selfSrc == nil &&
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
	req, m := w.arriveLocked(in, nil)
	if req != nil {
		w.stats.PostedHits.Add(1)
		w.ev(obs.EvMatch, in.from, in.id, in.tag, in.total, 1)
		req.mu.Lock()
		partial := int64(len(pkt.Payload)) < in.total
		if partial {
			// More fragments follow. A message that is whole already is
			// finished before this goroutine routes another packet, so
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
		// lost — resend it. If the pull is running or the message is
		// still buffered awaiting a match, the original RTS is in hand.
		// One critical section pairs with runPull's record-then-delete
		// ordering so a duplicate always hits at least one check.
		rec, done := w.completed[key]
		_, running := w.pulls[key]
		if fin := done && rec.kind == kindFIN; fin || running || w.table.findUnexpected(key) != nil {
			w.mu.Unlock()
			w.stats.DupRTS.Add(1)
			if fin {
				_ = w.nic.Send(key.from, fabric.Header{Kind: kindFIN, MsgID: key.id, Aux0: rec.status})
			}
			return
		}
	}
	m := newUnex(in)
	m.rndv, m.rndvKey = true, rndvKey
	if req, _ := w.arriveLocked(in, m); req != nil {
		w.stats.PostedHits.Add(1)
		w.ev(obs.EvMatch, m.from, m.id, m.tag, m.total, 1)
		w.startRecvLocked(req, m) // releases w.mu
		return
	}
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
func (w *Worker) trackSend(s *sendOp) error {
	if w.cfg.Reliable {
		s.next = time.Now().Add(w.rexmitBackoff().Delay(0, nil))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWorkerClosed
	}
	w.sends[s.hdr.MsgID] = s
	return nil
}

// takeSend removes and returns the rendezvous (rndv) or reliable eager send
// id names, if it is still waiting. Whoever takes a send out of w.sends
// finishes it.
func (w *Worker) takeSend(id uint64, rndv bool) *sendOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.sends[id]
	if s == nil || s.rndv() != rndv {
		return nil
	}
	delete(w.sends, id)
	return s
}

// finishSend completes a send taken out of w.sends (or never entered): a
// rendezvous send's registration and source state are given back, and err,
// if any, says why nothing was transferred.
func (w *Worker) finishSend(s *sendOp, err error) {
	total := s.hdr.Total
	if s.rndv() {
		w.nic.Deregister(s.key)
		if ferr := s.src.Finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		total = 0
	}
	s.req.complete(s.dst, Tag(s.hdr.Tag), total, s.hdr.Aux0, err)
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
		// already consumed): record it as an errored unexpected message so
		// a future receive fails instead of hanging. The janitor reaps the
		// entry after abortLinger if no receive ever claims it.
		m = newUnex(in)
		w.table.addUnexpected(m)
	}
	m.errored = err
	m.erroredAt = time.Now()
	w.releaseFrags(m)
	w.mu.Unlock()
}
