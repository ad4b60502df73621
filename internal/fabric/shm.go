package fabric

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SHM provider control frames, carried over the unix-socket plane and
// consumed by the stream core's ctrl hook (never delivered to Recv).
const (
	// kindRingOpen announces an eager ring the sender created for this
	// pair; Aux0 carries the segment size in bytes, Aux1 the producer's
	// handshake generation (echoed by the ack, so an ack for a ring that
	// was since torn down cannot flip a newer handshake onto a segment
	// the receiver no longer polls).
	kindRingOpen Kind = 0xFB
	// kindRingAck confirms the receiver mapped the ring; Aux1 echoes the
	// open's generation.
	kindRingAck Kind = 0xFC
	// kindWinData announces a chunk placed in the shared pull window:
	// Tag is the window-global chunk sequence, Offset the data offset
	// within the Get, Aux0 the window byte offset, Aux1 the chunk length.
	kindWinData Kind = 0xFD
	// kindWinAck confirms the requester copied a chunk out of the window
	// (Tag echoes the chunk sequence).
	kindWinAck Kind = 0xFE
	// kindRingSwitch is the ordered handoff marker: it is the last frame
	// of this pair's eager class to travel over the socket, so the
	// receiver starts polling the ring only after every earlier socket
	// frame was delivered.
	kindRingSwitch Kind = 0xFF
)

// flagGetWindow marks a Get request to be served through the shared pull
// window instead of socket response frames; Aux0 carries the window size.
const flagGetWindow uint8 = 1 << 1

// DefaultRingBytes is the default per-direction eager ring capacity.
const DefaultRingBytes = 256 << 10

// DefaultWinBytes is the default shared pull-window size (two halves,
// double-buffered).
const DefaultWinBytes = 512 << 10

// defaultWinThresh is the Get size at and above which the SHM provider
// pulls through the shared window instead of socket response frames.
const defaultWinThresh = 64 << 10

// SHM is a fabric provider for ranks that are separate processes on one
// node. Eager traffic crosses mmap'd single-producer/single-consumer
// rings (one per pair and direction, created on first use); large
// rendezvous pulls cross a shared double-buffered window so the exporter
// packs straight into memory the requester reads, one copy per side. A
// unix-domain socket mesh — the same lazily-dialed stream core the TCP
// provider uses — carries bootstrap, control, rendezvous requests, and
// spill traffic (fragmented messages, and everything sent before a pair's
// ring is up).
//
// Channel ordering: within the eager class a pair's traffic moves over
// exactly one channel at a time — the socket until the ring handshake
// completes, the ring after the kindRingSwitch marker — so eager frames
// never overtake each other. Fragmented messages always use the socket,
// keeping a message's fragments mutually ordered.
type SHM struct {
	*stream
	dir       string
	ringBytes int
	winBytes  int
	winThresh int

	outMu sync.Mutex
	outs  map[int]*shmOut

	inMu sync.Mutex
	ins  []*shmIn

	winOutMu sync.Mutex
	winOuts  map[int]*shmWin // per-requester serve windows (exporter side)

	winInMu sync.Mutex
	winIns  map[int]*shmWin // per-exporter pull windows (requester side)

	filesMu sync.Mutex
	files   []string // segments this endpoint created, removed on Close

	// downFlags marks peers with hard death evidence (refused redial
	// after an established connection): ring producers and window serves
	// toward such a peer bail out instead of waiting on a consumer that
	// no longer exists. Cleared by ReviveRank.
	downFlags []atomic.Bool

	// graveyard holds mappings retired by revival. They cannot be
	// unmapped while the poller or a window serve might still hold a
	// reference from a racing snapshot, so they are parked here and
	// unmapped at Close. Bounded by the number of revivals.
	gravMu    sync.Mutex
	graveyard [][]byte

	// ringGen numbers ring handshakes; each shmOut carries the generation
	// it was created under, and ring acks must echo it to take effect.
	ringGen atomic.Int64

	pollDone chan struct{}
	pollWG   sync.WaitGroup
	shmOnce  sync.Once

	ringSends  atomic.Int64 // eager frames that crossed a ring
	ringSpills atomic.Int64 // ring-eligible frames that used the socket
	winPulls   atomic.Int64 // Gets served through the shared window
}

// shmOut is the producer side of one outbound eager ring. mu serializes
// the pair's whole eager class — ring production AND pre-ring socket
// spills — so the kindRingSwitch marker (sent under mu by the first
// sender that observes the ack) cleanly splits the class into
// before-switch socket frames and after-switch ring frames. ackd is
// written by the control goroutine without taking mu, so a sender
// blocked mid-dial cannot stall the handshake.
type shmOut struct {
	mu    sync.Mutex
	gen   int64 // handshake generation; ring acks must echo it
	ring  *Ring
	mem   []byte
	ackd  atomic.Bool // kindRingAck received
	down  atomic.Bool // peer declared gone; ring producers must bail
	ready bool        // switch marker sent; senders use the ring
}

// shmIn is one inbound eager ring the poller drains. It stays pending —
// mapped but not polled — until the peer's switch marker arrives, which
// orders ring traffic after all earlier socket traffic.
type shmIn struct {
	peer    int
	ring    *Ring
	mem     []byte
	pending atomic.Bool
}

// shmWin is one side of a shared pull window: two halves, alternated by
// the window-global chunk sequence. The exporter side holds mu for a
// whole Get (serializing pulls per requester) and tracks the highest
// acked chunk; the requester side only reads chunks it was told about.
type shmWin struct {
	mu      sync.Mutex
	mem     []byte
	chunk   uint64 // next chunk sequence to write (exporter side)
	lastAck int64  // highest acked chunk sequence, -1 before any
	ack     chan uint64
}

// ShmSocket returns the unix-socket path rank binds inside dir. Exported
// so the launcher can pre-compute and clean session directories.
func ShmSocket(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("sock.%d", rank))
}

func shmRingPath(dir string, from, to int) string {
	return filepath.Join(dir, fmt.Sprintf("ring-%d-to-%d", from, to))
}

func shmWinPath(dir string, owner, requester int) string {
	return filepath.Join(dir, fmt.Sprintf("win-%d-to-%d", owner, requester))
}

// NewSHM attaches rank to a shared-memory fabric rooted at dir, a
// directory on a tmpfs (or any local filesystem) every rank of the job
// can reach. Keep dir short: unix socket paths are limited to ~100 bytes.
// All segment and socket names inside dir are deterministic functions of
// rank pairs, so no address exchange is needed beyond agreeing on dir.
func NewSHM(rank, size int, dir string, cfg Config) (*SHM, error) {
	if err := mapProbe(); err != nil {
		return nil, err
	}
	sock := ShmSocket(dir, rank)
	_ = os.Remove(sock) // a stale socket from a crashed prior run blocks listen
	st, err := newStream("unix", rank, size, sock, cfg)
	if err != nil {
		return nil, err
	}
	s := &SHM{
		stream:    st,
		dir:       dir,
		ringBytes: cfg.RingBytes,
		winBytes:  cfg.WinBytes,
		winThresh: defaultWinThresh,
		outs:      make(map[int]*shmOut),
		winOuts:   make(map[int]*shmWin),
		winIns:    make(map[int]*shmWin),
		downFlags: make([]atomic.Bool, size),
		pollDone:  make(chan struct{}),
	}
	if s.ringBytes <= 0 {
		s.ringBytes = DefaultRingBytes
	}
	if s.winBytes < 16<<10 {
		s.winBytes = DefaultWinBytes
	}
	s.winBytes &^= 15 // two 8-aligned halves
	st.ctrl = s.handleCtrl
	st.onGetReq = s.handleGetReq
	// Hard link evidence (refused redial after a prior connection: the
	// peer's process is gone) stalls the pair's shared-memory channels.
	st.onHardDown = s.stallPeer
	// Re-key shared-memory establishment to the socket generation: when
	// the control conn to a peer breaks (a respawned rank's revival on
	// either side closes and re-dials it), the pair's rings and pull
	// windows are torn down so the next send restarts the handshake over
	// the fresh socket. Without this, a producer whose consumer forgot
	// the ring keeps writing into a segment nobody polls.
	st.onConnDrop = s.connDropped
	addrs := make([]string, size)
	for i := range addrs {
		addrs[i] = ShmSocket(dir, i)
	}
	if err := st.join(addrs); err != nil {
		st.Close()
		return nil, err
	}
	if reg := cfg.Obs; reg != nil {
		p := func(name string) string { return fmt.Sprintf("fabric.r%d.%s", rank, name) }
		reg.GaugeFunc(p("shm_ring_sends"), s.ringSends.Load)
		reg.GaugeFunc(p("shm_ring_spills"), s.ringSpills.Load)
		reg.GaugeFunc(p("shm_win_pulls"), s.winPulls.Load)
	}
	s.pollWG.Add(1)
	go s.pollLoop()
	return s, nil
}

// mapProbe reports whether the platform supports the provider (mmap
// available) without touching the filesystem.
func mapProbe() error {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		return errors.New("fabric: SHM provider requires linux or darwin (mmap)")
	}
	return nil
}

// stallPeer marks the pair's shared-memory channels as stalled: ring
// producers and window serves toward peer bail out with ErrLinkDown
// instead of waiting on a consumer that will never drain.
func (s *SHM) stallPeer(peer int) {
	if peer < 0 || peer >= len(s.downFlags) {
		return
	}
	s.downFlags[peer].Store(true)
	s.outMu.Lock()
	o := s.outs[peer]
	s.outMu.Unlock()
	if o != nil {
		o.down.Store(true)
	}
}

// DeclareRankDown records out-of-band death evidence for a peer (the
// transport layer's failure verdict, which may arrive from pure silence
// before the socket plane sees anything) on both planes: the
// shared-memory channels stall, and the socket plane fails sends and
// dial campaigns toward the rank fast — a first-contact spill toward a
// rank declared dead by silence must not wait out a dial window.
func (s *SHM) DeclareRankDown(peer int) {
	s.stallPeer(peer)
	s.stream.DeclareRankDown(peer)
}

// bury parks a retired mapping for unmapping at Close.
func (s *SHM) bury(mem []byte) {
	if mem == nil {
		return
	}
	s.gravMu.Lock()
	s.graveyard = append(s.graveyard, mem)
	s.gravMu.Unlock()
}

// ReviveRank forgets all shared-memory state toward a peer so a
// respawned process can be re-admitted under the same rank: the
// outbound ring (its consumer died with the old incarnation) is torn
// down so the next send restarts the handshake against the replacement,
// inbound rings and pull windows of the dead incarnation are retired,
// and the down flags clear. Socket-plane state resets via the embedded
// stream core.
func (s *SHM) ReviveRank(peer int) {
	if peer < 0 || peer >= s.size || peer == s.rank {
		return
	}
	// Stall any producer first (a sender parked on the dead consumer's
	// full ring holds the pair lock until it observes down).
	s.outMu.Lock()
	o := s.outs[peer]
	delete(s.outs, peer)
	s.outMu.Unlock()
	if o != nil {
		o.down.Store(true)
		o.mu.Lock()
		if o.ring != nil {
			o.ring.Close()
			s.bury(o.mem)
			o.ring, o.mem = nil, nil
		}
		o.ready = false
		o.mu.Unlock()
	}
	s.inMu.Lock()
	kept := s.ins[:0]
	for _, in := range s.ins {
		if in.peer == peer {
			in.pending.Store(true) // poller skips it even from a racing snapshot
			s.bury(in.mem)
		} else {
			kept = append(kept, in)
		}
	}
	s.ins = kept
	s.inMu.Unlock()
	s.winInMu.Lock()
	if w := s.winIns[peer]; w != nil {
		s.bury(w.mem)
		delete(s.winIns, peer)
	}
	s.winInMu.Unlock()
	s.winOutMu.Lock()
	if w := s.winOuts[peer]; w != nil {
		s.bury(w.mem)
		delete(s.winOuts, peer)
	}
	s.winOutMu.Unlock()
	s.downFlags[peer].Store(false)
	s.stream.ReviveRank(peer)
}

// connDropped is the stream core's conn-drop hook: the socket to peer
// broke, so every piece of shared-memory establishment keyed to it is
// torn down and rebuilt on next use. This is what keeps elastic revival
// coherent when the two sides act out of step — a survivor that Revives
// a respawned rank buries its inbound rings, and without this hook the
// respawned side (whose handshake completed before the revival) would
// keep producing into segments nobody polls. Death evidence is NOT
// touched: downFlags belong to DeclareRankDown/ReviveRank.
//
// Inbound rings are left alone: the producer side observes the same
// socket break, resets here too, and its fresh kindRingOpen replaces
// them (acceptRing retires duplicates). Frames stranded in torn-down
// rings are recovered by the reliable protocol's retransmission.
func (s *SHM) connDropped(peer int) {
	if peer < 0 || peer >= s.size || peer == s.rank {
		return
	}
	s.outMu.Lock()
	o := s.outs[peer]
	delete(s.outs, peer)
	s.outMu.Unlock()
	if o != nil {
		// Unblock a producer parked on the ring before taking the pair
		// lock it holds; its send fails with ErrLinkDown, which is what
		// the broken socket would have produced anyway.
		o.down.Store(true)
		o.mu.Lock()
		if o.ring != nil {
			o.ring.Close()
			s.bury(o.mem)
			o.ring, o.mem = nil, nil
		}
		o.ready = false
		o.mu.Unlock()
	}
	s.winInMu.Lock()
	if w := s.winIns[peer]; w != nil {
		s.bury(w.mem)
		delete(s.winIns, peer)
	}
	s.winInMu.Unlock()
	s.winOutMu.Lock()
	if w := s.winOuts[peer]; w != nil {
		s.bury(w.mem)
		delete(s.winOuts, peer)
	}
	s.winOutMu.Unlock()
}

func (s *SHM) trackFile(path string) {
	s.filesMu.Lock()
	s.files = append(s.files, path)
	s.filesMu.Unlock()
}

// ringEligible reports whether a frame may cross the eager ring: it must
// be self-contained (its payload is the whole message, so no cross-frame
// ordering constraints exist outside the eager class) and small enough
// that a few frames fit the ring at once. Control kinds always use the
// socket.
func (s *SHM) ringEligible(hdr Header, n int) bool {
	return hdr.Kind < kindProviderCtrlMin &&
		hdr.Offset == 0 && int64(n) == hdr.Total &&
		recordSpan(headerWireSize+n) <= uint64(ringCapFor(s.ringBytes))/4
}

// ensureOut returns the pair's eager-class state, starting the ring
// handshake on first use.
func (s *SHM) ensureOut(to int) *shmOut {
	s.outMu.Lock()
	o := s.outs[to]
	if o == nil {
		o = &shmOut{gen: s.ringGen.Add(1)}
		s.outs[to] = o
		s.outMu.Unlock()
		go s.openRing(to, o)
		return o
	}
	s.outMu.Unlock()
	return o
}

// switchLocked flips the pair onto the ring once the receiver's ack is
// in, emitting the ordered handoff marker. Caller holds o.mu.
func (s *SHM) switchLocked(to int, o *shmOut) {
	if !o.ready && o.ring != nil && o.ackd.Load() {
		if s.stream.Send(to, Header{Kind: kindRingSwitch}) == nil {
			o.ready = true
		}
	}
}

// openRing creates and exports the eager ring toward a peer. Failures
// leave the pair on the socket path permanently — correct, just slower.
func (s *SHM) openRing(to int, o *shmOut) {
	path := shmRingPath(s.dir, s.rank, to)
	total := RingHeaderSize + int(ringCapFor(s.ringBytes))
	// Unlink any segment left by a previous incarnation of this rank
	// before creating: survivors of that incarnation may still hold the
	// old file mapped, and reusing its pages would splice this ring into
	// their stale mappings.
	_ = os.Remove(path)
	mem, err := mapFile(path, total, true)
	if err != nil {
		return
	}
	ring, err := AttachRing(mem, true)
	if err != nil {
		_ = unmapFile(mem)
		return
	}
	s.trackFile(path)
	o.mu.Lock()
	o.mem, o.ring = mem, ring
	o.mu.Unlock()
	// The ack handler completes the handshake (sends the switch marker
	// and flips ready).
	_ = s.stream.Send(to, Header{Kind: kindRingOpen, Aux0: int64(total), Aux1: o.gen})
}

// Send places self-contained frames on the pair's eager ring (blocking
// on a full ring, the shared-memory analogue of socket backpressure) and
// everything else on the socket. Pre-switch spills run under the same
// per-pair lock as ring production, so the eager class stays ordered
// across the handoff.
func (s *SHM) Send(to int, hdr Header, payload ...[]byte) error {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	if to == s.rank || to < 0 || to >= s.size || !s.ringEligible(hdr, n) {
		return s.stream.Send(to, hdr, payload...)
	}
	o := s.ensureOut(to)
	o.mu.Lock()
	defer o.mu.Unlock()
	s.switchLocked(to, o)
	if !o.ready {
		s.ringSpills.Add(1)
		return s.stream.Send(to, hdr, payload...)
	}
	buf, err := s.reserveBlocking(o, to, headerWireSize+n)
	if err != nil {
		return err
	}
	var hb [headerWireSize]byte
	encodeHeader(&hb, hdr)
	at := copy(buf, hb[:])
	for _, p := range payload {
		at += copy(buf[at:], p)
	}
	o.ring.Commit(at)
	s.ringSends.Add(1)
	return nil
}

// SendFrom packs straight from the source into ring memory — the
// zero-staging path where a datatype pack callback writes into the
// consumer-visible segment.
func (s *SHM) SendFrom(to int, hdr Header, src Source, off, size int64) (int64, error) {
	if to == s.rank || to < 0 || to >= s.size || size > MaxFragSize || !s.ringEligible(hdr, int(size)) {
		return s.stream.SendFrom(to, hdr, src, off, size)
	}
	o := s.ensureOut(to)
	o.mu.Lock()
	defer o.mu.Unlock()
	s.switchLocked(to, o)
	if !o.ready {
		s.ringSpills.Add(1)
		return s.stream.SendFrom(to, hdr, src, off, size)
	}
	buf, err := s.reserveBlocking(o, to, headerWireSize+int(size))
	if err != nil {
		return 0, err
	}
	var hb [headerWireSize]byte
	encodeHeader(&hb, hdr)
	copy(buf, hb[:])
	got, rerr := src.ReadAt(buf[headerWireSize:headerWireSize+int(size)], off)
	if rerr != nil && rerr != io.EOF {
		o.ring.Abort()
		return 0, rerr
	}
	if got == 0 && size > 0 {
		o.ring.Abort()
		return 0, ErrShortTransfer
	}
	o.ring.Commit(headerWireSize + got)
	s.ringSends.Add(1)
	return int64(got), nil
}

// reserveBlocking reserves ring space, waiting for the consumer when the
// ring is full. Caller holds o.mu (so waiting senders queue in order).
// A ring whose consumer process died would stay full forever; the down
// flags (fed by socket-plane death evidence) break that stall with
// ErrLinkDown so the transport's failure machinery takes over.
func (s *SHM) reserveBlocking(o *shmOut, to, n int) ([]byte, error) {
	for i := 0; ; i++ {
		if o.down.Load() || s.downFlags[to].Load() {
			return nil, fmt.Errorf("%w: rank %d exited; eager ring stalled", ErrLinkDown, to)
		}
		if buf, ok := o.ring.Reserve(n); ok {
			return buf, nil
		}
		select {
		case <-s.done:
			return nil, ErrClosed
		default:
		}
		switch {
		case i < 256:
			runtime.Gosched()
		case i < 4096:
			time.Sleep(20 * time.Microsecond)
		default:
			// A ring stays full only while its consumer is descheduled;
			// on an oversubscribed box that can last a while — back off
			// instead of stealing the consumer's CPU.
			time.Sleep(time.Millisecond)
		}
	}
}

// Get pulls large transfers through the shared window (exporter packs
// into one half while the requester drains the other) and small ones
// through socket response frames.
func (s *SHM) Get(from int, key uint64, off int64, sink Sink, sinkOff, size int64) error {
	if from != s.rank && size >= int64(s.winThresh) {
		if win := s.pullWindow(from); win != nil {
			s.winPulls.Add(1)
			return s.getVia(from, key, off, sink, sinkOff, size, flagGetWindow, int64(len(win.mem)))
		}
	}
	return s.stream.Get(from, key, off, sink, sinkOff, size)
}

// pullWindow returns (creating on first use) the window this rank pulls
// exporter `from`'s data through. nil falls back to socket pulls.
func (s *SHM) pullWindow(from int) *shmWin {
	s.winInMu.Lock()
	defer s.winInMu.Unlock()
	if w := s.winIns[from]; w != nil {
		return w
	}
	path := shmWinPath(s.dir, from, s.rank)
	_ = os.Remove(path) // see openRing: never reuse a previous incarnation's pages
	mem, err := mapFile(path, s.winBytes, true)
	if err != nil {
		return nil
	}
	s.trackFile(path)
	w := &shmWin{mem: mem, lastAck: -1}
	s.winIns[from] = w
	return w
}

// serveWindow returns (mapping on first use) the window this rank serves
// pulls to `requester` through. The requester created the segment before
// sending its first window-flagged request.
func (s *SHM) serveWindow(requester, size int) *shmWin {
	s.winOutMu.Lock()
	defer s.winOutMu.Unlock()
	if w := s.winOuts[requester]; w != nil {
		return w
	}
	mem, err := mapFile(shmWinPath(s.dir, s.rank, requester), size, false)
	if err != nil {
		return nil
	}
	w := &shmWin{mem: mem, lastAck: -1, ack: make(chan uint64, 64)}
	s.winOuts[requester] = w
	return w
}

// handleGetReq claims window-flagged Get requests off the socket read
// loop; plain requests fall through to the stream's socket server.
func (s *SHM) handleGetReq(conn *streamConn, hdr Header) bool {
	if hdr.Flags&flagGetWindow == 0 {
		return false
	}
	go s.serveWindowGet(conn.peer, hdr)
	return true
}

// serveWindowGet is the exporter side of a windowed pull: it packs the
// registered source into alternating window halves, announcing each
// chunk over the socket and recycling a half only after the requester
// acked copying it out (classic double buffering — chunk i waits on the
// ack of chunk i-2).
func (s *SHM) serveWindowGet(peer int, hdr Header) {
	fail := func(msg string) {
		_ = s.stream.Send(peer, Header{Kind: kindGetErr, MsgID: hdr.MsgID}, []byte(msg))
	}
	src, ok := s.lookupReg(uint64(hdr.Aux1))
	if !ok {
		fail(ErrBadKey.Error())
		return
	}
	w := s.serveWindow(peer, int(hdr.Aux0))
	if w == nil {
		fail("pull window unavailable")
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	half := len(w.mem) / 2
	off, left := hdr.Offset, hdr.Total
	sent := 0
	for left > 0 {
		c := w.chunk
		if sent >= 2 && !s.awaitWinAck(w, c-2, peer) {
			fail("pull window ack timeout")
			return
		}
		base := int(c%2) * half
		step := int64(half)
		if step > left {
			step = left
		}
		n, err := src.ReadAt(w.mem[base:base+int(step)], off)
		if err != nil && err != io.EOF {
			fail(err.Error())
			return
		}
		if n == 0 {
			fail(ErrShortTransfer.Error())
			return
		}
		ann := Header{Kind: kindWinData, Tag: c, MsgID: hdr.MsgID,
			Offset: off, Total: hdr.Total, Aux0: int64(base), Aux1: int64(n)}
		if s.stream.Send(peer, ann) != nil {
			return // link down; the requester's Get fails via failGets
		}
		w.chunk++
		sent++
		off += int64(n)
		left -= int64(n)
	}
	// Wait for the tail acks so the next Get may reuse both halves.
	if w.chunk > 0 && !s.awaitWinAck(w, w.chunk-1, peer) {
		fail("pull window ack timeout")
	}
}

// awaitWinAck waits until every chunk up to seq was acked. Acks arrive in
// socket order, so the sequence only moves forward. A requester whose
// process died mid-pull never acks — the wait bails as soon as the
// socket plane produces hard death evidence for the peer (a stale pull
// window), instead of burning the whole dial timeout.
func (s *SHM) awaitWinAck(w *shmWin, seq uint64, peer int) bool {
	deadline := time.Now().Add(s.cfg.DialTimeout)
	for w.lastAck < int64(seq) {
		select {
		case got := <-w.ack:
			if int64(got) > w.lastAck {
				w.lastAck = int64(got)
			}
		case <-s.done:
			return false
		case <-time.After(20 * time.Millisecond):
			if s.downFlags[peer].Load() || time.Now().After(deadline) {
				return false
			}
		}
	}
	return true
}

// handleCtrl runs on socket read goroutines and consumes the provider's
// control frames.
func (s *SHM) handleCtrl(conn *streamConn, hdr Header, payload []byte, putback func()) {
	putback() // control frames carry no payload worth keeping
	switch hdr.Kind {
	case kindRingOpen:
		go s.acceptRing(conn.peer, int(hdr.Aux0), hdr.Aux1)
	case kindRingAck:
		s.completeRing(conn.peer, hdr.Aux1)
	case kindRingSwitch:
		// Every socket frame the peer sent before switching is now in the
		// inbox; eager-class frames from this peer arrive via the ring
		// from here on.
		s.startPolling(conn.peer)
	case kindWinData:
		s.handleWinData(conn.peer, hdr)
	case kindWinAck:
		s.winOutMu.Lock()
		w := s.winOuts[conn.peer]
		s.winOutMu.Unlock()
		if w != nil {
			select {
			case w.ack <- hdr.Tag:
			default: // ≤2 chunks are ever unacked; a full channel means a dead serve
			}
		}
	}
}

// acceptRing maps a peer's freshly exported eager ring and acks it. The
// ring is not polled yet — that waits for the switch marker so no ring
// frame can overtake socket frames sent before the handshake finished.
func (s *SHM) acceptRing(peer, size int, gen int64) {
	mem, err := mapFile(shmRingPath(s.dir, peer, s.rank), size, false)
	if err != nil {
		return // no ack: the peer keeps using the socket
	}
	ring, err := AttachRing(mem, false)
	if err != nil {
		_ = unmapFile(mem)
		return
	}
	s.inMu.Lock()
	kept := s.ins[:0]
	for _, old := range s.ins {
		if old.peer == peer {
			// Duplicate open: the peer restarted its handshake — today
			// that means a respawned process re-admitted under the same
			// rank. The old incarnation's ring is dead weight; retire it
			// and install the fresh mapping.
			old.pending.Store(true)
			s.bury(old.mem)
		} else {
			kept = append(kept, old)
		}
	}
	s.ins = kept
	in := &shmIn{peer: peer, ring: ring, mem: mem}
	in.pending.Store(true)
	s.ins = append(s.ins, in)
	s.inMu.Unlock()
	_ = s.stream.Send(peer, Header{Kind: kindRingAck, Aux1: gen})
}

// completeRing records the receiver's ack. The next eligible send
// performs the actual switch (under the pair lock, so the marker lands
// between the last spilled frame and the first ring frame). The ack must
// echo the current handshake generation: a stale ack — for a ring that a
// conn drop has since torn down — must not flip the fresh handshake onto
// a segment the receiver is not polling.
func (s *SHM) completeRing(peer int, gen int64) {
	s.outMu.Lock()
	o := s.outs[peer]
	s.outMu.Unlock()
	if o != nil && o.gen == gen {
		o.ackd.Store(true)
	}
}

// startPolling moves a mapped inbound ring into the poller's active set.
func (s *SHM) startPolling(peer int) {
	s.inMu.Lock()
	for _, in := range s.ins {
		if in.peer == peer {
			in.pending.Store(false)
		}
	}
	s.inMu.Unlock()
}

// handleWinData copies one announced chunk out of the pull window into
// the Get's sink and acks the half back to the exporter. It runs on the
// socket read goroutine, so chunks from one exporter are handled in
// announcement order.
func (s *SHM) handleWinData(peer int, hdr Header) {
	g := s.lookupGet(hdr.MsgID)
	s.winInMu.Lock()
	win := s.winIns[peer]
	s.winInMu.Unlock()
	var copied int64
	if g != nil && win != nil {
		start, n := hdr.Aux0, hdr.Aux1
		if start >= 0 && n > 0 && start+n <= int64(len(win.mem)) {
			if _, err := g.sink.WriteAt(win.mem[start:start+n], g.sinkOff+hdr.Offset); err != nil {
				g.fail(err)
			} else {
				copied = n
			}
		} else {
			g.fail(fmt.Errorf("fabric: window chunk [%d,+%d) outside %d-byte window", start, n, len(win.mem)))
		}
	}
	// Ack unconditionally — even for an unknown MsgID (a Get that already
	// failed locally) the exporter must be able to recycle the half.
	_ = s.stream.Send(peer, Header{Kind: kindWinAck, Tag: hdr.Tag, MsgID: hdr.MsgID})
	if copied > 0 && atomic.AddInt64(&g.left, -copied) <= 0 {
		select {
		case g.done <- nil:
		default:
		}
	}
}

// pollLoop drains every active inbound ring into the inbox, with idle
// escalation from spinning to sleeping so quiet pairs cost ~nothing.
func (s *SHM) pollLoop() {
	defer s.pollWG.Done()
	idle := 0
	for {
		select {
		case <-s.pollDone:
			return
		default:
		}
		s.inMu.Lock()
		ins := append([]*shmIn(nil), s.ins...)
		s.inMu.Unlock()
		moved := 0
		for _, in := range ins {
			if in.pending.Load() {
				continue
			}
			for budget := 0; budget < 64; budget++ {
				rec, ok := in.ring.Next()
				if !ok {
					break
				}
				if len(rec) < headerWireSize {
					in.ring.Advance() // torn record: cannot happen via this provider; drop
					continue
				}
				hdr := decodeHeader(rec)
				var payload []byte
				var pbuf *[]byte
				if plen := len(rec) - headerWireSize; plen > 0 {
					pbuf = s.pool.get(plen)
					payload = (*pbuf)[:plen]
					copy(payload, rec[headerWireSize:])
				}
				in.ring.Advance()
				putback := func() {
					if pbuf != nil {
						s.pool.put(pbuf)
					}
				}
				pkt := &Packet{From: in.peer, Hdr: hdr, Payload: payload, release: putback}
				if !s.deliver(pkt) {
					putback()
					return
				}
				moved++
			}
		}
		if moved > 0 {
			idle = 0
			continue
		}
		idle++
		switch {
		case idle < 128:
			runtime.Gosched()
		case idle < 512:
			time.Sleep(50 * time.Microsecond)
		case idle < 2048:
			time.Sleep(500 * time.Microsecond)
		default:
			// Deep idle: a long sleep keeps oversubscribed jobs honest.
			// With a hundred-plus ranks per core, sub-millisecond polling
			// from every process starves the ranks doing real work.
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// DebugState renders a one-shot snapshot of the provider's channel
// state for post-mortem dumps: inbox depth, per-pair ring status, and
// the path counters. Pair locks are only tried — a pair whose lock is
// held (a sender parked on a full ring) reports "busy", which is itself
// the interesting datum.
func (s *SHM) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  shm: inbox=%d/%d ringSends=%d spills=%d winPulls=%d conns=%d\n",
		len(s.inbox), cap(s.inbox), s.ringSends.Load(), s.ringSpills.Load(), s.winPulls.Load(), s.NumConns())
	s.outMu.Lock()
	outs := make(map[int]*shmOut, len(s.outs))
	for to, o := range s.outs {
		outs[to] = o
	}
	s.outMu.Unlock()
	for to, o := range outs {
		if o.mu.TryLock() {
			fmt.Fprintf(&b, "  out->%d: ready=%v ackd=%v\n", to, o.ready, o.ackd.Load())
			o.mu.Unlock()
		} else {
			fmt.Fprintf(&b, "  out->%d: busy (sender holds pair lock; full ring?) ackd=%v\n", to, o.ackd.Load())
		}
	}
	s.inMu.Lock()
	ins := append([]*shmIn(nil), s.ins...)
	s.inMu.Unlock()
	for _, in := range ins {
		fmt.Fprintf(&b, "  in<-%d: pending=%v empty=%v\n", in.peer, in.pending.Load(), in.ring.Empty())
	}
	return b.String()
}

// Close tears the provider down: stop the socket plane (which unblocks
// the poller), wait the poller out, then unmap segments and remove the
// ones this endpoint created.
func (s *SHM) Close() error {
	s.shmOnce.Do(func() {
		close(s.pollDone)
		_ = s.stream.Close()
		s.pollWG.Wait()
		s.outMu.Lock()
		for _, o := range s.outs {
			o.mu.Lock()
			if o.ring != nil {
				o.ring.Close()
				_ = unmapFile(o.mem)
				o.ring, o.mem, o.ready = nil, nil, false
			}
			o.mu.Unlock()
		}
		s.outMu.Unlock()
		s.inMu.Lock()
		ins := s.ins
		s.ins = nil
		s.inMu.Unlock()
		for _, in := range ins {
			_ = unmapFile(in.mem)
		}
		s.winInMu.Lock()
		for _, w := range s.winIns {
			_ = unmapFile(w.mem)
		}
		s.winIns = map[int]*shmWin{}
		s.winInMu.Unlock()
		s.winOutMu.Lock()
		for _, w := range s.winOuts {
			_ = unmapFile(w.mem)
		}
		s.winOuts = map[int]*shmWin{}
		s.winOutMu.Unlock()
		s.gravMu.Lock()
		for _, mem := range s.graveyard {
			_ = unmapFile(mem)
		}
		s.graveyard = nil
		s.gravMu.Unlock()
		s.filesMu.Lock()
		for _, f := range s.files {
			_ = os.Remove(f)
		}
		s.files = nil
		s.filesMu.Unlock()
	})
	return nil
}
