package fabric

import (
	"encoding/binary"
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
// consumed by the stream core's ctrl hook (never surfaced by Recv).
const (
	// kindRingBell wakes a receiver that declared itself asleep on the
	// ring (Ring.Arm) the sender just committed a record to.
	kindRingBell Kind = 0xFA
	// kindRingOpen announces the eager ring the sender created and labelled
	// for this pair before its first data frame; Aux0 carries the segment
	// size in bytes, Aux1 the ring's generation, its label. The read loop
	// forwards it in band through the inbox, so Recv retires the pair's
	// previous ring and maps this one after every earlier socket frame of
	// the peer. ReviveRank queues one naming no ring (generation 0).
	kindRingOpen Kind = 0xFB
	// kindWinBell wakes a requester asleep on its pull ring (Ring.Arm); Tag
	// names the ring by its generation.
	kindWinBell Kind = 0xFD
)

// flagGetWindow marks a Get request served through the requester's pull
// ring; Tag names the ring by its generation, Aux0 gives its segment size.
const flagGetWindow uint8 = 1 << 1

// ringFrags is how many full fragments a pair's ring holds at once.
const ringFrags = 8

// ringCapForFrag is the data capacity of a pair's ring for a fragment size:
// ringFrags records of a full fragment, rounded up to a power of two
// (256 KiB at DefaultFragSize).
func ringCapForFrag(frag int) uint64 {
	return ringCapFor(ringFrags * int(recordSpan(headerWireSize+frag)))
}

// winBytes is the data area of a pull ring.
const winBytes = 512 << 10

// A pull ring record is the Get's id, padded so the data is 8-aligned, then
// up to winChunk bytes of the Get: a full record spans a quarter of the ring.
const (
	winRecHdr = 12
	winChunk  = winBytes/4 - 4 - winRecHdr
)

// defaultWinThresh is the Get size at and above which the SHM provider
// pulls through the pull ring instead of socket response frames.
const defaultWinThresh = 64 << 10

// SHM is a fabric provider for ranks that are separate processes on one
// node. Data frames cross mmap'd single-producer/single-consumer
// rings (one per pair and direction, created on first use), which the
// goroutine in Recv drains itself and sleeps on by doorbell; a rendezvous
// pull reads the sender's memory in place where the source and the host
// allow, else it crosses a pull ring the requester drains. A unix-domain
// socket mesh — the lazily-dialed stream core the TCP provider uses —
// carries bootstrap, ring announcements, doorbells and rendezvous requests,
// never a data frame.
//
// Channel ordering: a pair's data frames — every frame of the layer above,
// fragments included — cross its ring, the first one included: the sender
// creates, labels and announces the ring before it writes a frame there. So
// no frame overtakes one sent before it (Link's order). The ring is sized
// from FragSize, and a data frame too large for it is refused.
type SHM struct {
	*stream
	dir      string
	ringCap  uint64 // data capacity of every ring this endpoint creates
	frameMax int64  // largest data frame payload: a quarter of the ring

	outMu sync.Mutex
	outs  map[int]*shmOut

	// inMu guards the inbound rings Recv drains. Only the goroutine in Recv
	// changes active or reads ring memory, and it holds inMu while it does,
	// so Close can unmap.
	inMu   sync.Mutex
	active []*shmIn
	cursor int  // round-robin position in active
	armed  bool // asleep flags are set on the active rings
	// wake is the doorbell: kindRingBell frames land here. Capacity 1 and
	// non-blocking sends, so any number of bells wake one sleeper once.
	wake chan struct{}

	winMu   sync.Mutex      // guards the five below
	winOuts map[int]*shmWin // per-requester pull rings (exporter side)
	winIns  map[int]*shmWin // per-exporter pull rings (requester side)
	wins    []*shmWin       // every pull ring mapped, either side
	regTab  []byte          // this rank's registration table (cma_linux.go)
	regIns  map[int][]byte  // the peers', mapped on first use
	cmaOff  atomic.Bool     // sticky: process_vm_readv is refused on this host

	// segMu guards segs, every segment this endpoint mapped, and files,
	// the ones it created. Retiring a ring only drops the reference (a
	// producer may still be writing through it); Close unmaps. Bounded by
	// the number of pair resets.
	segMu sync.Mutex
	segs  [][]byte
	files []string

	// downFlags marks peers with hard death evidence: ring producers —
	// eager senders and pull serves — toward them bail out instead of
	// waiting on a consumer that no longer exists. Cleared by ReviveRank.
	downFlags []atomic.Bool

	// ringGen numbers eager and pull rings; a ring is labelled with its
	// generation, and the frames that announce or name it carry it.
	ringGen atomic.Int64

	shmOnce sync.Once

	ringSends     atomic.Int64 // data frames that crossed a ring
	winPulls      atomic.Int64 // Gets pulled through a pull ring
	cmaPulls      atomic.Int64 // Gets that read the exporter's memory in place
	bellsSent     atomic.Int64 // kindRingBell and kindWinBell frames written
	bellsRecv     atomic.Int64 // kindRingBell and kindWinBell frames read
	recvSleeps    atomic.Int64 // times Recv armed the doorbells and blocked
	ringFullWaits atomic.Int64 // eager sends and pull records that found their ring full and waited
}

// shmOut is the producer side of a pair's outbound eager ring. mu
// serializes the pair's data frames and the ring's replacement, so every
// frame lands on the ring announced last.
type shmOut struct {
	mu      sync.Mutex
	connGen atomic.Uint64 // the socket the open went out on (stream.connGen); 0 before
	ring    *Ring         // labelled with its generation; nil before the first open
}

// stale reports whether the socket pair o's ring was announced on has broken
// or been replaced since. The receiver may have retired the ring with it —
// its ReviveRank does, in band — so nothing may be written there any more:
// the next send opens a new ring (lockPair), and a producer parked on the
// ring bails. It holds the moment the socket changes, not when the
// conn-drop hook runs, which can be after a new socket came up; a pair whose
// open has not gone out yet is not stale.
func (s *SHM) stale(to int, o *shmOut) bool {
	g := o.connGen.Load()
	return g != 0 && g != s.connGen[to].Load()
}

// shmIn is one inbound eager ring; gen is its label, the generation its
// kindRingOpen named.
type shmIn struct {
	peer int
	gen  int64
	ring *Ring
}

// shmWin is one side of a pull ring: the requester's, which creates and
// consumes it, or an exporter's mapping, which produces. mu is held for a
// whole Get or serve, so one Get at a time crosses a ring, and Close clears
// ring under mu before it unmaps.
type shmWin struct {
	mu   sync.Mutex
	ring *Ring         // nil once Close detached it
	gen  int64         // the requester's generation for the ring, its label
	bell chan struct{} // requester side: this ring's kindWinBell frames land here
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
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		return nil, errors.New("fabric: SHM provider requires linux or darwin (mmap)")
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
		ringCap:   ringCapForFrag(st.cfg.FragSize),
		outs:      make(map[int]*shmOut),
		wake:      make(chan struct{}, 1),
		winOuts:   make(map[int]*shmWin),
		winIns:    make(map[int]*shmWin),
		regIns:    make(map[int][]byte),
		downFlags: make([]atomic.Bool, size),
	}
	// Generations stay ordered across this rank's incarnations too, and a
	// memory key never matches a registration of another incarnation.
	s.ringGen.Store(int64(cfg.Epoch) << 32)
	st.nextKey.Store(uint64(cfg.Epoch) << 32)
	s.frameMax = int64(s.ringCap/4) - 4 - headerWireSize // its record spans a quarter of the ring
	st.ctrl = s.handleCtrl
	st.onPull = s.servePull
	st.onHardDown = s.stallPeer
	// Shared-memory establishment is keyed to the socket generation.
	st.onConnDrop = s.connDropped
	addrs := make([]string, size)
	for i := range addrs {
		addrs[i] = ShmSocket(dir, i)
	}
	if err := st.join(addrs); err != nil {
		st.Close()
		return nil, err
	}
	s.cmaInit()
	if reg := cfg.registry(); reg != nil {
		p := func(name string) string { return fmt.Sprintf("fabric.r%d.%s", rank, name) }
		reg.GaugeFunc(p("shm_ring_sends"), s.ringSends.Load)
		reg.GaugeFunc(p("shm_win_pulls"), s.winPulls.Load)
		reg.GaugeFunc(p("shm_cma_pulls"), s.cmaPulls.Load)
		reg.GaugeFunc(p("shm_bells_sent"), s.bellsSent.Load)
		reg.GaugeFunc(p("shm_bells_recv"), s.bellsRecv.Load)
		reg.GaugeFunc(p("shm_recv_sleeps"), s.recvSleeps.Load)
		reg.GaugeFunc(p("shm_ring_full_waits"), s.ringFullWaits.Load)
	}
	return s, nil
}

// stallPeer is the stream core's hard-evidence hook (the peer's process
// is gone): ring producers toward peer — eager senders and pull serves —
// bail out with ErrLinkDown instead of waiting on a consumer that will
// never drain.
func (s *SHM) stallPeer(peer int) {
	if peer >= 0 && peer < len(s.downFlags) {
		s.downFlags[peer].Store(true)
	}
}

// DeclareRankDown records out-of-band death evidence for a peer (the
// transport layer's verdict, which may arrive from pure silence before
// the socket plane sees anything) on both planes: the shared-memory
// channels stall, and the socket plane fails sends and dial campaigns
// toward the rank fast instead of waiting out a dial window.
func (s *SHM) DeclareRankDown(peer int) {
	s.stallPeer(peer)
	s.stream.DeclareRankDown(peer)
}

// ReviveRank forgets all shared-memory state toward a peer so a
// respawned process can be re-admitted under the same rank: the pull
// ring from it is dropped, the inbound rings are retired, the down flags clear,
// and the outbound pair goes stale with the socket the stream core closes.
func (s *SHM) ReviveRank(peer int) {
	if peer < 0 || peer >= s.size || peer == s.rank {
		return
	}
	s.connDropped(peer)
	// The active ring belongs to the goroutine in Recv: retire it in band,
	// before the stream core closes the socket, so that the open of a ring
	// announced over the next socket is taken after this one.
	s.deliver(&Packet{From: peer, Hdr: Header{Kind: kindRingOpen}})
	s.downFlags[peer].Store(false)
	s.stream.ReviveRank(peer)
}

// Link states SHM lossless: an accepted Send to a live peer arrives. What
// Send accepted sits in a ring, which an open in a unix socket announced:
//   - a unix stream socket never breaks by itself (a full one blocks the
//     writer). An end is closed only by Close (the process leaving), by
//     DeclareRankDown (a death verdict), by ReviveRank (the revival that
//     follows one), by sever (a ring whose shared words contradict each
//     other, which a live producer never leaves behind: it publishes each
//     record with one atomic store of the tail, after writing it; or a
//     ring the receiver cannot map, which a live producer removes only to
//     replace it once its socket changed), or when a fresh connection
//     replaces one whose other end broke first. A
//     reader drains what the writer flushed up to EOF unless it closed its
//     own end first, and only those calls do;
//   - a frame in a ring is lost only when the consumer retires the ring
//     before reading it: on ReviveRank, or for the producer's next
//     generation — which the producer starts only once the socket its ring
//     was announced on changed, and from that moment it writes nothing
//     more to the old ring (shmOut.stale).
//
// So frames between live processes are lost only to a death verdict or the
// revival after one, both about the rank's previous incarnation. A revival
// can cut off a respawned incarnation that reached this side first, but
// what it sent before it was readmitted is no message of the protocol (the
// readmission, core.Grow, invites the rank only after reviving it), and
// what it sends after crosses a new ring announced over the new socket. The
// layer above therefore needs no acks over SHM. And a pair's data frames
// share one channel (see SHM), so they arrive in the order they were sent:
// that an exiting peer's last frames were taken in, a marker sent behind
// them shows (ucp's Close). A Get reads the exporter's memory on the caller's goroutine
// (the pull ring, where the host refuses that, is the fallback).
func (s *SHM) Link() Link { return Link{Lossless: true, LocalGet: true, CrossProcess: true} }

// connDropped is the stream core's conn-drop hook: the socket to peer
// broke, so the next Get from peer creates a fresh pull ring. The outbound
// ring is not touched here: it went stale with the socket (shmOut.stale), and
// the next send opens a new ring — this hook runs on its own goroutine,
// possibly after a new socket came up and a new ring with it, which it must
// not tear down. Inbound rings are left alone: the producer's next ring has
// an open that retires them. Death evidence is NOT touched:
// downFlags belong to DeclareRankDown/ReviveRank.
func (s *SHM) connDropped(peer int) {
	if peer < 0 || peer >= s.size || peer == s.rank {
		return
	}
	s.winMu.Lock()
	delete(s.winIns, peer)
	delete(s.regIns, peer)
	s.winMu.Unlock()
}

// mapSeg maps a shared segment and records it for Close. The creating
// side first unlinks any file a previous incarnation of this rank left
// under the name: survivors may still hold it mapped, and reusing its
// pages would splice the new segment into their stale mappings. The file
// is made under segMu: once Close has swept, nothing appears in the
// session directory, not even for the moment it takes to notice.
func (s *SHM) mapSeg(path string, size int, create bool) ([]byte, error) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.closed() {
		return nil, ErrClosed
	}
	if create {
		_ = os.Remove(path)
	}
	mem, err := mapFile(path, size, create)
	if err != nil {
		return nil, err
	}
	s.segs = append(s.segs, mem)
	if create {
		s.files = append(s.files, path)
	}
	return mem, nil
}

// mapRing maps a ring segment and lays the ring over it. Close unmaps
// whatever mapSeg recorded, so the header is touched under segMu and only
// while Close has not begun: the last frames of a run make first contact
// (and so open rings) while the endpoint is already shutting down.
func (s *SHM) mapRing(path string, size int, create bool) (*Ring, error) {
	mem, err := s.mapSeg(path, size, create)
	if err != nil {
		return nil, err
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.closed() {
		return nil, ErrClosed
	}
	return AttachRing(mem, create)
}

// ringEligible reports whether a frame to a peer is a data frame, which
// crosses the pair's ring: every frame of the layer above is one, the
// provider's control kinds use the socket. A data frame larger than a
// quarter of the ring — so a few fit at once — is refused.
func (s *SHM) ringEligible(to int, hdr Header, n int64) (bool, error) {
	if to == s.rank || to < 0 || to >= s.size || hdr.Kind >= kindProviderCtrlMin {
		return false, nil
	}
	if n > s.frameMax {
		return false, fmt.Errorf("fabric: %d-byte frame exceeds the SHM ring's limit of %d bytes (a quarter of the ring FragSize %d sizes)",
			n, s.frameMax, s.cfg.FragSize)
	}
	return true, nil
}

// lockPair returns the pair's outbound ring state, locked, with a ring the
// receiver was told of: on first use, and once the socket the ring was
// announced on changed (stale), it opens a new one first. A ring that
// cannot be opened is the send's error; the next send tries again.
func (s *SHM) lockPair(to int) (*shmOut, error) {
	s.outMu.Lock()
	o := s.outs[to]
	if o == nil {
		o = &shmOut{}
		s.outs[to] = o
	}
	s.outMu.Unlock()
	o.mu.Lock()
	if o.ring == nil || s.stale(to, o) {
		if err := s.openRing(to, o); err != nil {
			o.mu.Unlock()
			return nil, err
		}
	}
	return o, nil
}

// openRing creates the pair's eager ring, labels it with a fresh
// generation and announces it with kindRingOpen, the way pullRing makes a
// pull ring: once it returns, the receiver maps the ring when it takes the
// open, after the peer's earlier socket frames. The socket comes first, so
// a peer that cannot be reached costs no segment. Caller holds o.mu.
func (s *SHM) openRing(to int, o *shmOut) error {
	conn, err := s.stream.conn(to)
	if err != nil {
		return err
	}
	ring, err := s.mapRing(shmRingPath(s.dir, s.rank, to), RingHeaderSize+int(s.ringCap), true)
	if err != nil {
		return err
	}
	gen := s.ringGen.Add(1)
	ring.SetLabel(uint64(gen))
	if err := s.writeFrame(conn, Header{Kind: kindRingOpen, Aux0: int64(RingHeaderSize + ring.Cap()), Aux1: gen}); err != nil {
		return err
	}
	o.ring = ring
	o.connGen.Store(conn.gen)
	return nil
}

// Send places data frames on the pair's ring (blocking on a full ring,
// the shared-memory analogue of socket backpressure) and the rest on the
// socket.
func (s *SHM) Send(to int, hdr Header, payload ...[]byte) error {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	if ok, err := s.ringEligible(to, hdr, int64(n)); !ok {
		if err != nil {
			return err
		}
		return s.stream.Send(to, hdr, payload...)
	}
	o, err := s.lockPair(to)
	if err != nil {
		return err
	}
	defer o.mu.Unlock()
	buf, err := s.reserveBlocking(o.ring, to, o.connGen.Load(), headerWireSize+n)
	if err != nil {
		return err
	}
	encodeHeader((*[headerWireSize]byte)(buf), hdr)
	at := headerWireSize
	for _, p := range payload {
		at += copy(buf[at:], p)
	}
	o.ring.Commit(at)
	return s.ringBell(to, o)
}

// ringBell counts a committed ring frame and, if the pair's receiver
// declared itself asleep, wakes it with one kindRingBell on the socket,
// whose write error is the send's error. Caller holds o.mu.
func (s *SHM) ringBell(to int, o *shmOut) error {
	s.ringSends.Add(1)
	if !o.ring.Bell() {
		return nil
	}
	s.bellsSent.Add(1)
	return s.stream.Send(to, Header{Kind: kindRingBell})
}

// SendFrom packs straight from the source into ring memory — the
// zero-staging path where a datatype pack callback writes into the
// consumer-visible segment.
func (s *SHM) SendFrom(to int, hdr Header, src Source, off, size int64) (int64, error) {
	if ok, err := s.ringEligible(to, hdr, size); !ok {
		if err != nil {
			return 0, err
		}
		return s.stream.SendFrom(to, hdr, src, off, size)
	}
	o, err := s.lockPair(to)
	if err != nil {
		return 0, err
	}
	defer o.mu.Unlock()
	buf, err := s.reserveBlocking(o.ring, to, o.connGen.Load(), headerWireSize+int(size))
	if err != nil {
		return 0, err
	}
	encodeHeader((*[headerWireSize]byte)(buf), hdr)
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
	return int64(got), s.ringBell(to, o)
}

// reserveBlocking reserves n bytes in a ring toward peer to — an eager
// pair's or a pull ring's, whose producer lock the caller holds — waiting
// while it is full. A ring whose consumer died would stay full forever:
// the down flags (socket-plane death evidence) and a change of the socket
// the ring's use is keyed to (gen, a stream.connGen) break the wait with
// ErrLinkDown. The wait is timed, not a doorbell: the consumer must never
// write to the wire for it.
func (s *SHM) reserveBlocking(r *Ring, to int, gen uint64, n int) ([]byte, error) {
	for i := 0; ; i++ {
		if gen != s.connGen[to].Load() || s.downFlags[to].Load() {
			return nil, fmt.Errorf("%w: rank %d exited; ring stalled", ErrLinkDown, to)
		}
		buf, ok, err := r.Reserve(n)
		if err != nil {
			s.stream.sever(to) // both sides' pairs go stale with the socket
			return nil, fmt.Errorf("%w: ring to rank %d: %w", ErrLinkDown, to, err)
		}
		if ok {
			return buf, nil
		}
		if i == 0 {
			s.ringFullWaits.Add(1)
		}
		if s.closed() {
			return nil, ErrClosed
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

// Get reads a source the exporter published in its registration table out
// of the exporter's memory (cma_linux.go). Any other crosses the pull ring
// when large — the exporter packs records into it while this goroutine
// copies them out — and socket response frames when small.
func (s *SHM) Get(from int, key uint64, off int64, sink Sink, sinkOff, size int64) error {
	if done, err := s.cmaGet(from, key, off, sink, sinkOff, size); done {
		return err
	}
	if from != s.rank && size >= defaultWinThresh {
		if w := s.pullRing(from, 0, RingHeaderSize+winBytes); w != nil {
			w.mu.Lock()
			defer w.mu.Unlock()
			if w.ring != nil {
				s.winPulls.Add(1)
				req := Header{Flags: flagGetWindow, Tag: uint64(w.gen), Offset: off, Total: size, Aux0: RingHeaderSize + winBytes, Aux1: int64(key)}
				return s.getVia(from, req, sink, sinkOff, func(g *streamGet) error { return s.drainPull(w, g, sinkOff, size) })
			}
		}
	}
	return s.stream.Get(from, key, off, sink, sinkOff, size)
}

// pullRing returns this rank's side of a pull ring shared with peer. A
// requester (gen 0) creates it on first use under a fresh generation, which
// labels the ring and which its requests name. An exporter maps the ring a
// request names, again when its mapping is older (the requester replaced
// the ring; the conn-drop hook that says so may run late), never one file
// twice: labels only grow at a path. nil: no ring, or not the one named.
func (s *SHM) pullRing(peer int, gen int64, size int) *shmWin {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	set, path := s.winIns, shmWinPath(s.dir, peer, s.rank)
	if gen != 0 {
		set, path = s.winOuts, shmWinPath(s.dir, s.rank, peer)
	}
	w := set[peer]
	if w == nil || w.gen < gen {
		ring, err := s.mapRing(path, size, gen == 0)
		if err != nil {
			return nil
		}
		w = &shmWin{ring: ring, gen: int64(ring.Label())}
		if gen == 0 {
			w.gen, w.bell = s.ringGen.Add(1), make(chan struct{}, 1)
			ring.SetLabel(uint64(w.gen))
		}
		set[peer] = w
		s.wins = append(s.wins, w)
	}
	if w.gen != gen && gen != 0 {
		return nil
	}
	return w
}

// drainPull is a windowed Get's wait: it copies the Get's records out of
// the pull ring into the sink, in order from sinkOff, until size bytes
// landed, and skips what a Get that failed before draining left behind.
// With the ring empty it spins the way Recv does, then sleeps on the ring's
// bell, g.done (the exporter's kindGetErr, or link loss) and Close.
func (s *SHM) drainPull(w *shmWin, g *streamGet, sinkOff, size int64) error {
	r := w.ring
	for idle := 0; size > 0; idle++ {
		rec, ok, err := r.Next()
		mine := ok && len(rec) >= winRecHdr && binary.LittleEndian.Uint64(rec) == g.id
		if err == nil && ok && (len(rec) < winRecHdr || mine && int64(len(rec)-winRecHdr) > size) {
			err = fmt.Errorf("%w: %d-byte pull ring record", ErrCorrupt, len(rec))
		}
		switch {
		case err != nil: // a link failure: the serve bails, the next Get maps anew
			s.stream.sever(g.peer)
			return fmt.Errorf("%w: pull ring from rank %d: %w", ErrLinkDown, g.peer, err)
		case ok:
			idle = 0
			if data := rec[winRecHdr:]; mine {
				if _, err = g.sink.WriteAt(data, sinkOff); err == nil {
					sinkOff += int64(len(data))
					size -= int64(len(data))
				}
			}
			r.Advance()
		case idle < recvSpins:
			runtime.Gosched()
		case r.Arm():
			select {
			case <-w.bell:
			case err = <-g.done:
			case <-s.done:
				err = ErrClosed
			}
			r.Disarm()
		}
		if err == nil && size > 0 {
			select {
			case err = <-g.done: // the serve failed: the next Get skips what it left
			case <-s.done:
				err = ErrClosed
			default:
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// servePull is the exporter side of a pull: a record a chunk, the source
// packing straight into ring memory, and a kindWinBell when the requester
// sleeps. It waits for space as an eager send does, and bails as one does
// once the request's socket is replaced, the peer dies or Close runs. A
// request for no bytes, or naming no ring (generation 0, which would make
// pullRing create one on this side), is refused.
func (s *SHM) servePull(conn *streamConn, hdr Header) {
	peer := conn.peer
	fail := func(msg string) {
		_ = s.stream.Send(peer, Header{Kind: kindGetErr, MsgID: hdr.MsgID}, []byte(msg))
	}
	if hdr.Total <= 0 || hdr.Tag == 0 {
		fail(fmt.Sprintf("malformed pull request: %d bytes through ring generation %d", hdr.Total, int64(hdr.Tag)))
		return
	}
	src, ok := s.serveReg(uint64(hdr.Aux1))
	if !ok {
		fail(ErrBadKey.Error())
		return
	}
	w := s.pullRing(peer, int64(hdr.Tag), int(hdr.Aux0))
	if w == nil {
		fail("pull ring unavailable")
		return
	}
	w.mu.Lock() // w.ring is nil only once closed(), which the loop checks
	defer w.mu.Unlock()
	// Records of one size, a multiple of 8: a Get just over a chunk is two.
	off, left := hdr.Offset, hdr.Total
	recs := (left + winChunk - 1) / winChunk
	chunk := ((left+recs-1)/recs + 7) &^ 7
	for left > 0 && !s.closed() {
		step := int(min(left, chunk))
		buf, err := s.reserveBlocking(w.ring, peer, conn.gen, winRecHdr+step)
		if err != nil {
			fail(err.Error())
			return
		}
		binary.LittleEndian.PutUint64(buf, hdr.MsgID)
		n, err := src.ReadAt(buf[winRecHdr:], off)
		if n == 0 && (err == nil || err == io.EOF) {
			err = ErrShortTransfer
		}
		if err != nil && err != io.EOF {
			w.ring.Abort()
			fail(err.Error())
			return
		}
		w.ring.Commit(winRecHdr + n)
		if w.ring.Bell() {
			s.bellsSent.Add(1)
			if s.stream.Send(peer, Header{Kind: kindWinBell, Tag: hdr.Tag}) != nil {
				return // link down; the requester's Get fails via failGets
			}
		}
		off += int64(n)
		left -= int64(n)
	}
}

// handleCtrl runs on socket read goroutines and consumes the provider's
// control frames.
func (s *SHM) handleCtrl(conn *streamConn, hdr Header) {
	switch hdr.Kind {
	case kindRingOpen:
		// In band: every earlier socket frame of the peer is ahead of it.
		s.deliver(&Packet{From: conn.peer, Hdr: hdr})
	case kindRingBell:
		s.bellsRecv.Add(1)
		select {
		case s.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	case kindWinBell: // a ring a conn drop replaced may still be drained
		s.bellsRecv.Add(1)
		s.winMu.Lock()
		for _, w := range s.wins {
			if w.bell != nil && w.gen == int64(hdr.Tag) {
				select {
				case w.bell <- struct{}{}:
				default: // a wake-up is already pending
				}
			}
		}
		s.winMu.Unlock()
	}
}

// acceptRing takes a peer's kindRingOpen on the goroutine in Recv: it
// retires the peer's active ring and maps the one the open names. An open
// no newer than the active ring came late on an older socket and is
// dropped; a ring whose label is not the open's generation was replaced
// under a later open, which follows, and is not drained. A ring that cannot
// be mapped is a link failure, as a corrupt one is: its producer writes to
// it already, so both sides reset. Generation 0 (ReviveRank) only retires.
func (s *SHM) acceptRing(peer int, size, gen int64) {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	for _, in := range s.active {
		if in.peer == peer && gen != 0 && gen <= in.gen {
			return
		}
	}
	s.retireLocked(peer)
	if gen == 0 {
		return
	}
	ring, err := s.mapRing(shmRingPath(s.dir, peer, s.rank), int(size), false)
	if err != nil {
		s.stream.sever(peer)
		return
	}
	if ring.Label() == uint64(gen) {
		s.active = append(s.active, &shmIn{peer: peer, gen: gen, ring: ring})
	}
}

// recvSpins is how often an idle Recv yields before it blocks: enough to
// catch the reply of a peer that is already running.
const recvSpins = 64

// Recv returns the next inbound packet: socket frames from the inbox
// first, then the eager rings, which it drains itself. With nothing to
// read it declares itself asleep on every ring and blocks until a socket
// frame, a doorbell or Close arrives; no timer is involved. Recv is
// single-consumer (the NIC contract): the active rings are state of the
// calling goroutine, changed only by the ring opens it takes here.
func (s *SHM) Recv() (*Packet, bool) {
	for idle := 0; ; idle++ {
		var pkt *Packet
		select {
		case pkt = <-s.inbox:
		default:
			var block bool
			if pkt, block = s.pollRings(idle >= recvSpins); pkt != nil {
				return pkt, true
			}
			if !block {
				runtime.Gosched()
				continue
			}
			s.recvSleeps.Add(1)
			select {
			case pkt = <-s.inbox:
			case <-s.wake:
				continue // straight back to the rings, still ready to sleep
			case <-s.done:
				if pkt, _ = s.stream.Recv(); pkt == nil {
					return nil, false
				}
			}
		}
		if pkt.Hdr.Kind != kindRingOpen {
			return pkt, true
		}
		s.acceptRing(pkt.From, pkt.Hdr.Aux0, pkt.Hdr.Aux1)
	}
}

// pollRings returns the next record of the active rings, copied into a
// pool buffer, as a packet. With arm set and every ring empty it leaves
// each ring's asleep flag set and reports block: the next producer to
// commit rings the bell. Once closed it stays off ring memory.
func (s *SHM) pollRings(arm bool) (pkt *Packet, block bool) {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	if s.closed() {
		return nil, true
	}
	if s.armed {
		for _, in := range s.active {
			in.ring.Disarm()
		}
		s.armed = false
	}
	for i := range s.active {
		at := (s.cursor + i) % len(s.active)
		in := s.active[at]
		rec, ok, err := in.ring.Next()
		if err == nil && ok && len(rec) < headerWireSize {
			err = fmt.Errorf("%w: %d-byte ring record", ErrCorrupt, len(rec))
		}
		if err != nil {
			// A link failure of the pair: both sides reset, and the
			// producer's next send opens a new ring.
			s.retireLocked(in.peer)
			s.stream.sever(in.peer)
			return nil, false
		}
		if !ok {
			continue
		}
		s.cursor = at + 1
		pkt = s.pool.get(len(rec) - headerWireSize)
		pkt.From, pkt.Hdr = in.peer, decodeHeader(rec)
		copy(pkt.Payload, rec[headerWireSize:])
		in.ring.Advance()
		return pkt, false
	}
	if !arm {
		return nil, false
	}
	s.armed = true
	for _, in := range s.active {
		if !in.ring.Arm() {
			return nil, false // a record landed meanwhile
		}
	}
	return nil, true
}

// retireLocked stops reading peer's active ring. Caller holds inMu.
func (s *SHM) retireLocked(peer int) {
	for i, in := range s.active {
		if in.peer == peer {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// DebugState renders a one-shot snapshot of the provider's channel
// state for post-mortem dumps: inbox depth, per-pair ring status, and
// the path counters. Pair locks are only tried — a pair whose lock is
// held (a sender parked on a full ring) reports "busy", which is itself
// the interesting datum. An inbound ring asleep and not empty: the bell
// was never sent; bellsRecv behind the peer's bellsSent: it was lost.
func (s *SHM) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  shm: inbox=%d/%d ringSends=%d winPulls=%d conns=%d\n"+
		"  shm: bellsSent=%d bellsRecv=%d recvSleeps=%d ringFullWaits=%d\n",
		len(s.inbox), cap(s.inbox), s.ringSends.Load(), s.winPulls.Load(), s.NumConns(),
		s.bellsSent.Load(), s.bellsRecv.Load(), s.recvSleeps.Load(), s.ringFullWaits.Load())
	s.outMu.Lock()
	for to, o := range s.outs {
		if o.mu.TryLock() {
			fmt.Fprintf(&b, "  out->%d: open=%v stale=%v\n", to, o.ring != nil, s.stale(to, o))
			o.mu.Unlock()
		} else {
			fmt.Fprintf(&b, "  out->%d: busy (sender holds pair lock; full ring?) stale=%v\n", to, s.stale(to, o))
		}
	}
	s.outMu.Unlock()
	s.inMu.Lock()
	for _, in := range s.active {
		fmt.Fprintf(&b, "  in<-%d: gen=%d empty=%v asleep=%v\n", in.peer, in.gen, in.ring.Empty(), in.ring.Asleep())
	}
	s.inMu.Unlock()
	return b.String()
}

// Close tears the provider down: stop the socket plane (which wakes a
// sleeping Recv and keeps it off the rings), detach producers, pulls and
// the receiver from ring memory, then unmap every segment and remove the
// ones this endpoint created.
func (s *SHM) Close() error {
	s.shmOnce.Do(func() {
		_ = s.stream.Close()
		s.outMu.Lock()
		for _, o := range s.outs {
			o.mu.Lock()
			o.ring = nil
			o.mu.Unlock()
		}
		s.outMu.Unlock()
		s.winMu.Lock()
		wins := s.wins // complete: nothing maps once closed
		s.cmaClose()
		s.winMu.Unlock()
		// A pull ring is unmapped only once its Get or serve let go, which
		// may mean a sink or source callback returning.
		for _, w := range wins {
			w.mu.Lock()
			w.ring = nil
			w.mu.Unlock()
		}
		s.inMu.Lock() // excludes a Recv that is reading a ring
		defer s.inMu.Unlock()
		s.active = nil
		s.segMu.Lock()
		defer s.segMu.Unlock()
		for _, mem := range s.segs {
			_ = unmapFile(mem)
		}
		for _, f := range s.files {
			_ = os.Remove(f)
		}
		s.segs, s.files = nil, nil
	})
	return nil
}
