package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
)

// Tracing is done from outside the stack, at the two boundaries the bench
// can reach without editing it:
//
//   - the fabric boundary: traceNIC decorates a fabric.NIC and times every
//     Send, SendFrom, Get and Recv (Recv time is waiting, not work);
//   - the datatype boundary: the Source handed to SendFrom/Register and the
//     Sink handed to Get are wrapped, so time inside ReadAt (the pack
//     callback or plan kernel) and WriteAt (unpack) is seen apart from the
//     fabric's own copying, and bytes that moved through a direct Window
//     (memory regions) are told apart from bytes that were packed.
//
// core.Datatype does not expose the CustomHandler it was built from, so the
// handler itself cannot be wrapped from here; the Source/Sink boundary is
// where its Pack, Unpack and Regions results cross into the transport.
//
// Counters are always on in a traced pass. Spans are kept for the first
// spanOpsPerCell ops of each cell only, so trace.json stays readable.

const (
	spanOpsPerCell = 8
	maxSpans       = 20000
)

// span is one timed interval. Spans of one message share Op; Parent links
// a span to the one that caused it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Rank    int    `json:"rank"`
	Cell    string `json:"cell,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	// Wait marks time spent blocked for the peer, reported apart from busy.
	Wait bool `json:"wait,omitempty"`
}

// cellTrace is the counter set of one cell over a traced pass, summed over
// the ranks whose counters were collected.
type cellTrace struct {
	Ops          int64 `json:"ops"`
	PayloadBytes int64 `json:"payload_bytes"`

	Sends      int64 `json:"fabric_sends"`
	SendNS     int64 `json:"fabric_send_ns"`
	SendBytes  int64 `json:"fabric_staged_bytes"`
	Gets       int64 `json:"fabric_gets"`
	GetNS      int64 `json:"fabric_get_ns"`
	GetBytes   int64 `json:"fabric_pulled_bytes"`
	Recvs      int64 `json:"fabric_recvs"`
	RecvWaitNS int64 `json:"fabric_recv_wait_ns"`
	Errors     int64 `json:"fabric_errors"`

	PackCalls   int64 `json:"pack_calls"`
	PackNS      int64 `json:"pack_ns"`
	PackBytes   int64 `json:"pack_bytes"`
	UnpackCalls int64 `json:"unpack_calls"`
	UnpackNS    int64 `json:"unpack_ns"`
	UnpackBytes int64 `json:"unpack_bytes"`
	// StageBytes were copied by ReadAt/WriteAt from memory that also had a
	// direct window: a staging copy, not a pack.
	StageBytes  int64 `json:"stage_bytes"`
	DirectBytes int64 `json:"direct_bytes"`
	Regions     int64 `json:"regions"`
	RegionSrcs  int64 `json:"region_sources"`

	// PackedShare is pack_bytes over payload bytes: how much of the payload
	// went through pack callbacks or kernels rather than memory regions.
	PackedShare float64 `json:"packed_share"`
}

func (t *cellTrace) add(o *cellTrace) {
	t.Ops += o.Ops
	t.PayloadBytes += o.PayloadBytes
	t.Sends += o.Sends
	t.SendNS += o.SendNS
	t.SendBytes += o.SendBytes
	t.Gets += o.Gets
	t.GetNS += o.GetNS
	t.GetBytes += o.GetBytes
	t.Recvs += o.Recvs
	t.RecvWaitNS += o.RecvWaitNS
	t.Errors += o.Errors
	t.PackCalls += o.PackCalls
	t.PackNS += o.PackNS
	t.PackBytes += o.PackBytes
	t.UnpackCalls += o.UnpackCalls
	t.UnpackNS += o.UnpackNS
	t.UnpackBytes += o.UnpackBytes
	t.StageBytes += o.StageBytes
	t.DirectBytes += o.DirectBytes
	t.Regions += o.Regions
	t.RegionSrcs += o.RegionSrcs
}

func (t *cellTrace) finish() {
	if t.PayloadBytes > 0 {
		t.PackedShare = float64(t.PackBytes) / float64(t.PayloadBytes)
	}
}

// traceHooks is a process's trace state. A nil *traceHooks is a valid,
// inert tracer: every method is a no-op, which is what untraced runs use.
type traceHooks struct {
	epoch time.Time
	names []string // cell name per item

	cur     atomic.Int32 // item whose ops are running
	curOp   atomic.Int64
	opSpan  atomic.Int64
	keep    atomic.Bool // spans of the current op are kept
	nextID  atomic.Int64
	nextOp  atomic.Int64
	callOf  [4]atomic.Int64 // per rank: span of the call in progress
	opsSeen []int64

	mu    sync.Mutex
	cells []cellTrace
	spans []span
}

func newTraceHooks(items []item) *traceHooks {
	h := &traceHooks{epoch: time.Now(), cells: make([]cellTrace, len(items)), opsSeen: make([]int64, len(items))}
	for _, it := range items {
		name := "training-loop"
		if it.Cell != nil {
			name = it.Kind.String() + ":" + it.Cell.Name
		}
		h.names = append(h.names, name)
	}
	return h
}

func (h *traceHooks) setCell(i int) {
	if h != nil {
		h.cur.Store(int32(i))
	}
}

func (h *traceHooks) now() int64 { return int64(time.Since(h.epoch)) }

// beginOp opens the span of one driver op; rank 0 only.
func (h *traceHooks) beginOp(i int) int64 {
	if h == nil {
		return 0
	}
	op := h.nextOp.Add(1)
	h.curOp.Store(op)
	keep := h.opsSeen[i] < spanOpsPerCell
	h.opsSeen[i]++
	h.keep.Store(keep)
	if !keep {
		return 0
	}
	id := h.nextID.Add(1)
	h.opSpan.Store(id)
	h.push(span{ID: id, Op: op, Rank: 0, Cell: h.names[i], Name: "bench.op", StartNS: h.now()})
	return id
}

func (h *traceHooks) endOp(id int64) {
	if h == nil || id == 0 {
		return
	}
	h.done(id, 0, false)
	h.keep.Store(false)
}

func (h *traceHooks) push(s span) {
	h.mu.Lock()
	if len(h.spans) < maxSpans {
		h.spans = append(h.spans, s)
	}
	h.mu.Unlock()
}

// open starts a child span under rank's current call (or the op itself).
func (h *traceHooks) open(rank int, name string) int64 {
	if !h.keep.Load() {
		return 0
	}
	parent := h.opSpan.Load()
	if rank < len(h.callOf) {
		if c := h.callOf[rank].Load(); c != 0 {
			parent = c
		}
	}
	id := h.nextID.Add(1)
	h.push(span{ID: id, Parent: parent, Op: h.curOp.Load(), Rank: rank, Name: name, StartNS: h.now()})
	return id
}

// done stamps the end of an open span (searching back from the newest).
func (h *traceHooks) done(id, bytes int64, wait bool) {
	if id == 0 {
		return
	}
	end := h.now()
	h.mu.Lock()
	for i := len(h.spans) - 1; i >= 0; i-- {
		if h.spans[i].ID == id {
			h.spans[i].EndNS, h.spans[i].Bytes, h.spans[i].Wait = end, bytes, wait
			break
		}
	}
	h.mu.Unlock()
}

// leaf records a finished span that has no children of its own.
func (h *traceHooks) leaf(parent int64, rank int, name string, start time.Time, el, bytes int64, wait bool) {
	if !h.keep.Load() {
		return
	}
	st := int64(start.Sub(h.epoch))
	h.push(span{ID: h.nextID.Add(1), Parent: parent, Op: h.curOp.Load(), Rank: rank,
		Name: name, StartNS: st, EndNS: st + el, Bytes: bytes, Wait: wait})
}

// count applies f to the current cell's counters.
func (h *traceHooks) count(f func(c *cellTrace)) {
	i := int(h.cur.Load())
	h.mu.Lock()
	if i >= 0 && i < len(h.cells) {
		f(&h.cells[i])
	}
	h.mu.Unlock()
}

// setTotals records how many messages and payload bytes item i moved.
func (h *traceHooks) setTotals(i int, msgs, bytesEach int64) {
	h.mu.Lock()
	h.cells[i].Ops, h.cells[i].PayloadBytes = msgs, msgs*bytesEach
	h.mu.Unlock()
}

// cellTrace returns a copy of item i's counters.
func (h *traceHooks) cellTrace(i int) *cellTrace {
	h.mu.Lock()
	c := h.cells[i]
	h.mu.Unlock()
	return &c
}

func (h *traceHooks) takeSpans() []span {
	h.mu.Lock()
	s := h.spans
	h.spans = nil
	h.mu.Unlock()
	return s
}

// ---------------------------------------------------------------------------
// call spans: the bench's own calls into the stack, per rank

// tracedEndpoint brackets an endpoint's calls with spans, so fabric and
// datatype spans on the same rank have a parent that names the call.
type tracedEndpoint struct {
	asyncEndpoint
	plain endpoint
	h     *traceHooks
	rank  int
}

func traceEndpoint(ep endpoint, h *traceHooks, rank int) endpoint {
	t := &tracedEndpoint{plain: ep, h: h, rank: rank}
	if a, ok := ep.(asyncEndpoint); ok {
		t.asyncEndpoint = a
		return t
	}
	return syncOnly{t}
}

// syncOnly hides the async methods of a tracedEndpoint whose inner endpoint
// has none, so type assertions keep telling the truth.
type syncOnly struct{ t *tracedEndpoint }

func (s syncOnly) Send(c *core.Comm, slot, peer, tag int) error { return s.t.Send(c, slot, peer, tag) }
func (s syncOnly) Recv(c *core.Comm, slot, peer, tag int) error { return s.t.Recv(c, slot, peer, tag) }
func (s syncOnly) Clear(slot int)                               { s.t.plain.Clear(slot) }
func (s syncOnly) Check(slot int) error                         { return s.t.plain.Check(slot) }

func (t *tracedEndpoint) call(name string, f func() error) error {
	id := t.h.open(t.rank, name)
	if id != 0 {
		t.h.callOf[t.rank].Store(id)
	}
	err := f()
	if id != 0 {
		t.h.callOf[t.rank].Store(0)
		t.h.done(id, 0, false)
	}
	return err
}

func (t *tracedEndpoint) Send(c *core.Comm, slot, peer, tag int) error {
	return t.call("mpi.send", func() error { return t.plain.Send(c, slot, peer, tag) })
}

func (t *tracedEndpoint) Recv(c *core.Comm, slot, peer, tag int) error {
	return t.call("mpi.recv", func() error { return t.plain.Recv(c, slot, peer, tag) })
}

func (t *tracedEndpoint) Clear(slot int)       { t.plain.Clear(slot) }
func (t *tracedEndpoint) Check(slot int) error { return t.plain.Check(slot) }

func (t *tracedEndpoint) Isend(c *core.Comm, slot, peer, tag int) (r *core.Request, err error) {
	err = t.call("mpi.isend", func() error { r, err = t.asyncEndpoint.Isend(c, slot, peer, tag); return err })
	return r, err
}

func (t *tracedEndpoint) Irecv(c *core.Comm, slot, peer, tag int) (r *core.Request, err error) {
	err = t.call("mpi.irecv", func() error { r, err = t.asyncEndpoint.Irecv(c, slot, peer, tag); return err })
	return r, err
}

// ---------------------------------------------------------------------------
// the fabric boundary

// traceNIC decorates a fabric.NIC, timing and counting every data-path call.
type traceNIC struct {
	fabric.NIC
	h *traceHooks
}

func (n *traceNIC) Send(to int, hdr fabric.Header, payload ...[]byte) error {
	var bytes int64
	for _, p := range payload {
		bytes += int64(len(p))
	}
	id := n.h.open(n.Rank(), "fabric.send")
	t0 := time.Now()
	err := n.NIC.Send(to, hdr, payload...)
	el := int64(time.Since(t0))
	n.h.done(id, bytes, false)
	n.h.count(func(c *cellTrace) {
		c.Sends++
		c.SendNS += el
		c.SendBytes += bytes
		if err != nil {
			c.Errors++
		}
	})
	return err
}

func (n *traceNIC) SendFrom(to int, hdr fabric.Header, src fabric.Source, off, size int64) (int64, error) {
	id := n.h.open(n.Rank(), "fabric.sendfrom")
	t0 := time.Now()
	got, err := n.NIC.SendFrom(to, hdr, &tracedSource{Source: src, h: n.h, rank: n.Rank(), parent: id}, off, size)
	el := int64(time.Since(t0))
	n.h.done(id, got, false)
	n.h.count(func(c *cellTrace) {
		c.Sends++
		c.SendNS += el
		c.SendBytes += got
		if err != nil {
			c.Errors++
		}
	})
	return got, err
}

func (n *traceNIC) Recv() (*fabric.Packet, bool) {
	t0 := time.Now()
	pkt, ok := n.NIC.Recv()
	el := int64(time.Since(t0))
	if ok {
		n.h.count(func(c *cellTrace) {
			c.Recvs++
			c.RecvWaitNS += el
		})
		n.h.leaf(n.h.opSpan.Load(), n.Rank(), "fabric.recv_wait", t0, el, int64(len(pkt.Payload)), true)
	}
	return pkt, ok
}

func (n *traceNIC) Register(src fabric.Source) uint64 {
	ts := &tracedSource{Source: src, h: n.h, rank: n.Rank(), parent: n.h.opSpan.Load()}
	if rc, ok := src.(fabric.RegionCounter); ok {
		regions := int64(rc.NumRegions())
		n.h.count(func(c *cellTrace) {
			c.Regions += regions
			c.RegionSrcs++
		})
	}
	return n.NIC.Register(ts)
}

func (n *traceNIC) Get(from int, key uint64, off int64, sink fabric.Sink, sinkOff, size int64) error {
	id := n.h.open(n.Rank(), "fabric.get")
	t0 := time.Now()
	err := n.NIC.Get(from, key, off, &tracedSink{Sink: sink, h: n.h, rank: n.Rank(), parent: id}, sinkOff, size)
	el := int64(time.Since(t0))
	n.h.done(id, size, false)
	n.h.count(func(c *cellTrace) {
		c.Gets++
		c.GetNS += el
		c.GetBytes += size
		if err != nil {
			c.Errors++
		}
	})
	return err
}

// tracedSource times ReadAt (pack) and counts Window (direct) bytes.
type tracedSource struct {
	fabric.Source
	h      *traceHooks
	rank   int
	parent int64
}

func (s *tracedSource) ReadAt(dst []byte, off int64) (int, error) {
	direct := false
	if d, ok := s.Source.(fabric.DirectSource); ok && len(dst) > 0 {
		_, direct = d.Window(off, 1)
	}
	t0 := time.Now()
	n, err := s.Source.ReadAt(dst, off)
	el := int64(time.Since(t0))
	if direct {
		s.h.count(func(c *cellTrace) { c.StageBytes += int64(n) })
		return n, err
	}
	s.h.count(func(c *cellTrace) {
		c.PackCalls++
		c.PackNS += el
		c.PackBytes += int64(n)
	})
	if s.parent != 0 {
		s.h.leaf(s.parent, s.rank, "core.pack", t0, el, int64(n), false)
	}
	return n, err
}

func (s *tracedSource) Window(off, n int64) ([]byte, bool) {
	d, ok := s.Source.(fabric.DirectSource)
	if !ok {
		return nil, false
	}
	v, ok := d.Window(off, n)
	if ok {
		s.h.count(func(c *cellTrace) { c.DirectBytes += int64(len(v)) })
	}
	return v, ok
}

func (s *tracedSource) NumRegions() int {
	if rc, ok := s.Source.(fabric.RegionCounter); ok {
		return rc.NumRegions()
	}
	return 1
}

// tracedSink times WriteAt (unpack) and passes Window and Sequential on.
type tracedSink struct {
	fabric.Sink
	h      *traceHooks
	rank   int
	parent int64
}

func (s *tracedSink) WriteAt(src []byte, off int64) (int, error) {
	direct := false
	if d, ok := s.Sink.(fabric.DirectSink); ok && len(src) > 0 {
		_, direct = d.Window(off, 1)
	}
	t0 := time.Now()
	n, err := s.Sink.WriteAt(src, off)
	el := int64(time.Since(t0))
	if direct {
		s.h.count(func(c *cellTrace) { c.StageBytes += int64(n) })
		return n, err
	}
	s.h.count(func(c *cellTrace) {
		c.UnpackCalls++
		c.UnpackNS += el
		c.UnpackBytes += int64(n)
	})
	if s.parent != 0 {
		s.h.leaf(s.parent, s.rank, "core.unpack", t0, el, int64(n), false)
	}
	return n, err
}

func (s *tracedSink) Window(off, n int64) ([]byte, bool) {
	d, ok := s.Sink.(fabric.DirectSink)
	if !ok {
		return nil, false
	}
	return d.Window(off, n)
}

func (s *tracedSink) Sequential() bool {
	if q, ok := s.Sink.(fabric.SequentialSink); ok {
		return q.Sequential()
	}
	return false
}
