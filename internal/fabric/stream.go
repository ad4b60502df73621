package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpicd/internal/obs"
)

// Reserved header kinds used internally by byte-stream providers for the
// Get (RDMA-read emulation) protocol. Transports keep their own kinds
// below KindFabricReserved, so these frames, which the provider's read
// loop consumes, never shadow traffic that has to reach Recv.
const (
	kindGetReq  Kind = 0xF7
	kindGetResp Kind = 0xF8
	kindGetErr  Kind = 0xF9
	// 0xFA..0xFF belong to provider extensions routed through the stream
	// core's ctrl hook (the SHM provider's ring/window control frames).
	kindProviderCtrlMin Kind = 0xFA
)

// Handshake verdict bytes: a dialer writes its 4-byte rank hello and
// reads one verdict byte before using the connection.
const (
	helloAccept = 0x5A // connection installed on the accept side
	helloYield  = 0x59 // acceptor's own (canonical) dial is in flight; wait for it
)

// stream is the shared core of the byte-stream providers (TCP and the
// SHM provider's unix-socket control plane): length-prefixed
// frames over net.Conn links, gather writes, a request/response Get
// protocol, lazy connection establishment and redial.
//
// Connection model: links are established on demand — the first send or
// Get toward a peer dials it. Either side may initiate; at most one
// connection per pair survives. A dialer announces its rank
// (hello) and waits for a verdict byte: the acceptor either installs the
// connection (helloAccept) or, when its own dial to that peer is already
// in flight and it is the canonical dialer (the higher rank), tells the
// lower rank to yield and wait for the inbound connection (helloYield) —
// the deterministic tie-break that collapses simultaneous dials.
//
// Broken connections are redialed with exponential backoff by the higher
// rank; while a link is down, sends to and Gets from that peer fail with
// ErrLinkDown so the transport layer can retry.
type stream struct {
	cfg     Config
	rank    int
	size    int
	network string // "tcp" or "unix"
	pool    *bufPool

	ln    net.Listener
	inbox chan *Packet
	done  chan struct{}
	once  sync.Once

	// ctrl, when non-nil, intercepts provider-extension frames (kinds >=
	// kindProviderCtrlMin) before they reach the inbox. It runs on the
	// connection's read goroutine; their payload is not kept.
	ctrl func(conn *streamConn, hdr Header)
	// onPull, when non-nil, serves the Get requests flagged flagGetWindow
	// (the SHM provider's pull ring), each on a goroutine of its own.
	onPull func(conn *streamConn, hdr Header)
	// onConnDrop, when non-nil, is told every time a connection to a peer
	// broke (read failure, write failure, or teardown of a replaced
	// socket); the SHM provider forgets its pull ring from the peer.
	// Invoked on a fresh goroutine — drops fire from send paths that hold
	// provider pair locks — so it may run after a new connection came up:
	// state that must follow the socket exactly reads connGen instead.
	// Set before join, like ctrl.
	onConnDrop func(peer int)
	// onHardDown, when non-nil, sees hard peer-death evidence before the
	// public hook does (the SHM provider stalls the pair's shared-memory
	// channels so ring producers and pull serves stop waiting on a
	// consumer that no longer exists). Set before join, like ctrl.
	onHardDown func(peer int)

	// hookMu guards peerDown, the one public hook slot
	// (Membership.SetPeerDownHook): it is installed after construction
	// (the worker layer wires it into its failure state) while accept
	// and read goroutines may already be reporting link events.
	hookMu   sync.Mutex
	peerDown func(peer int, hard bool)

	// connsMu guards conns, addrs, dialing and everConn: accept-side
	// installs, dial-side installs, lazy establishment and disconnect
	// teardown all mutate connection state from different goroutines.
	connsMu sync.RWMutex
	conns   []*streamConn
	// connGen mirrors conns as generations, for lock-free reads: the
	// generation of the connection to each peer, 0 while there is none.
	// Every installed connection gets a fresh one (lastGen counts them), so
	// a value that changed means the socket a peer state was keyed to broke
	// or was replaced (the SHM provider's rings, see shmOut.stale).
	connGen []atomic.Uint64
	lastGen uint64
	// connChanged is closed and re-made whenever a connection is installed
	// or a dial campaign gives up: the two events awaitConn waits for.
	connChanged chan struct{}
	addrs       []string // peer addresses; nil until Join
	dialing     map[int]bool
	everConn    []bool // a connection to peer succeeded at least once
	// down marks ranks the layer above has declared dead
	// (DeclareRankDown). Sends and dial campaigns toward a down rank
	// fail fast instead of burning a dial window: the synchronous post
	// path otherwise strands its caller for DialTimeout inside a
	// first-contact wait that no death verdict can interrupt.
	// ReviveRank clears the mark.
	down []bool
	// draining holds write-dropped connections whose read side is still
	// delivering kernel-buffered frames; Close closes them so a blocked
	// read unsticks at shutdown.
	draining map[*streamConn]struct{}

	// epochMu guards peerEpochs, the highest incarnation number each
	// rank has announced in a connection handshake, and epochKnown, which
	// marks the ranks whose recorded incarnation this side shares a world
	// with: all of them for a process of the original world (first
	// incarnations start together), otherwise those that announced
	// themselves. See observeEpoch.
	epochMu    sync.Mutex
	peerEpochs []uint32
	epochKnown []bool

	regMu   sync.RWMutex
	regs    map[uint64]Source
	served  map[uint64]bool // keys a Get request has been served for (NIC.Served)
	nextKey atomic.Uint64

	getMu   sync.Mutex
	gets    map[uint64]*streamGet
	nextGet atomic.Uint64

	// Link-health counters, exported as gauges when Config.Obs is set.
	connDrops    atomic.Int64 // connections torn down after a socket failure
	redials      atomic.Int64 // redial campaigns started
	redialsOK    atomic.Int64 // redial campaigns that re-established the link
	checksumErrs atomic.Int64 // Get frames rejected by CRC verification
}

type streamConn struct {
	peer     int
	gen      uint64 // see stream.connGen
	c        net.Conn
	wmu      sync.Mutex
	readDone bool // the read loop returned; guarded by stream.connsMu
}

type streamGet struct {
	id      uint64 // the request's MsgID
	peer    int
	sink    Sink
	sinkOff int64 // sink offset corresponding to remote offset 0 of this get
	left    int64
	done    chan error
}

// defaultDialTimeout applies when Config.DialTimeout is zero.
const defaultDialTimeout = 30 * time.Second

// dialBackoff paces connection attempts during establishment and redial.
var dialBackoff = Backoff{Base: 20 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.25}

// newStream binds the local endpoint (bind may carry an ephemeral port
// such as "127.0.0.1:0" — the bound address is reported by Addr) and
// starts accepting. Peer addresses arrive later through Join.
func newStream(network string, rank, size int, bind string, cfg Config) (*stream, error) {
	if rank < 0 || rank >= size {
		return nil, rangeErr("local", rank, size)
	}
	cfg = NewConfig(cfg)
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	s := &stream{
		cfg:         cfg,
		rank:        rank,
		size:        size,
		network:     network,
		pool:        newBufPool(cfg.FragSize),
		conns:       make([]*streamConn, size),
		connGen:     make([]atomic.Uint64, size),
		connChanged: make(chan struct{}),
		dialing:     make(map[int]bool),
		everConn:    make([]bool, size),
		down:        make([]bool, size),
		peerEpochs:  make([]uint32, size),
		epochKnown:  make([]bool, size),
		draining:    make(map[*streamConn]struct{}),
		inbox:       make(chan *Packet, inboxDepth),
		done:        make(chan struct{}),
		regs:        make(map[uint64]Source),
		served:      make(map[uint64]bool),
		gets:        make(map[uint64]*streamGet),
	}
	if network == "unix" && bind != "" {
		// A respawned process re-binds its dead incarnation's socket path,
		// and the stale file would fail the bind with EADDRINUSE. The path
		// lives in the launcher-owned job directory, so removing it cannot
		// race another live listener.
		_ = os.Remove(bind)
	}
	for i := range s.epochKnown {
		s.epochKnown[i] = cfg.Epoch == 0
	}
	ln, err := net.Listen(network, bind)
	if err != nil {
		return nil, fmt.Errorf("fabric: rank %d listen %s %s: %w", rank, network, bind, err)
	}
	s.ln = ln
	if reg := cfg.registry(); reg != nil {
		p := func(name string) string { return fmt.Sprintf("fabric.r%d.%s", rank, name) }
		reg.GaugeFunc(p("tcp_conn_drops"), s.connDrops.Load)
		reg.GaugeFunc(p("tcp_redials"), s.redials.Load)
		reg.GaugeFunc(p("tcp_redials_ok"), s.redialsOK.Load)
		reg.GaugeFunc(p("tcp_checksum_errs"), s.checksumErrs.Load)
		reg.GaugeFunc(p("pool_outstanding"), s.pool.Outstanding)
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound local address (the concrete port when bind used
// ":0"), for the bootstrap exchange.
func (s *stream) Addr() string { return s.ln.Addr().String() }

// Config returns the provider's resolved configuration.
func (s *stream) Config() Config { return s.cfg }

// Link is the TCP provider's (the SHM provider states its own): a written
// frame can be lost — a broken connection is redialed, and a peer closing
// with unread inbound bytes resets both directions, discarding what the
// kernel buffered — and a Get is a round trip to the exporter.
func (s *stream) Link() Link { return Link{CrossProcess: true} }

// join provides the full peer address table and returns immediately;
// links come up on first use.
func (s *stream) join(addrs []string) error {
	if len(addrs) != s.size {
		return fmt.Errorf("fabric: rank %d join with %d addresses, world size %d", s.rank, len(addrs), s.size)
	}
	s.connsMu.Lock()
	s.addrs = append([]string(nil), addrs...)
	s.connsMu.Unlock()
	return nil
}

// SetPeerDownHook installs a callback for link-level peer-death evidence.
// It fires with hard=false when an established connection to peer breaks
// (EOF or a socket write error — ambiguous: the peer may be alive behind
// a flaky link) and with hard=true when a redial to a peer this side had
// connected to before is refused outright (connect-refused / vanished
// unix socket: the peer's listener lives exactly as long as its process,
// so refusal after a successful connection means the process is gone).
// Callbacks run on transport goroutines and must not block.
func (s *stream) SetPeerDownHook(fn func(peer int, hard bool)) {
	s.hookMu.Lock()
	s.peerDown = fn
	s.hookMu.Unlock()
}

// notifyPeerDown reports link evidence to the provider extension and the
// installed hook, if any.
func (s *stream) notifyPeerDown(peer int, hard bool) {
	if s.closed() {
		return
	}
	if hard && s.onHardDown != nil {
		s.onHardDown(peer)
	}
	s.hookMu.Lock()
	fn := s.peerDown
	s.hookMu.Unlock()
	if fn != nil {
		fn(peer, hard)
	}
}

// isConnRefused reports whether a dial error means "nobody is listening":
// ECONNREFUSED for TCP and bound-but-dead unix sockets, ENOENT for a
// unix socket path that has been removed.
func isConnRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ENOENT)
}

// UpdateAddr replaces the stored address for one peer (a respawned rank
// rejoining a TCP world listens on a fresh ephemeral port; SHM addresses
// are deterministic and never change).
func (s *stream) UpdateAddr(peer int, addr string) error {
	if peer < 0 || peer >= s.size {
		return rangeErr("peer", peer, s.size)
	}
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	if s.addrs == nil {
		return fmt.Errorf("fabric: rank %d has no address table yet (Join not called)", s.rank)
	}
	s.addrs[peer] = addr
	return nil
}

// DeclareRankDown records the transport layer's death verdict for a
// rank: the stale connection (if any) is closed, and every send or dial
// campaign toward the rank fails fast until ReviveRank. Without this, a
// first-contact send posted toward a dead rank blocks its caller inside
// conn()'s dial wait for the full DialTimeout — a wait the worker's
// DeclarePeerFailed cannot interrupt because the blocked goroutine is
// below the transport, inside the provider.
func (s *stream) DeclareRankDown(rank int) {
	if rank < 0 || rank >= s.size || rank == s.rank {
		return
	}
	s.connsMu.Lock()
	s.down[rank] = true
	old := s.conns[rank]
	s.setConnLocked(rank, nil)
	s.connsMu.Unlock()
	if old != nil {
		old.c.Close()
		obs.Ctl(s.rank, rank, "conn drop stale", 0)
	}
}

// ReviveRank forgets all connection state toward a peer so a respawned
// process can be admitted under the same rank: the stale socket (still
// carrying the dead incarnation's half-open state) is closed, and
// everConn is cleared so the next send performs a patient first-dial —
// the replacement may still be booting — instead of the broken-link
// fast-fail.
func (s *stream) ReviveRank(peer int) {
	if peer < 0 || peer >= s.size || peer == s.rank {
		return
	}
	s.connsMu.Lock()
	old := s.conns[peer]
	s.setConnLocked(peer, nil)
	s.everConn[peer] = false
	s.down[peer] = false
	s.connsMu.Unlock()
	s.epochMu.Lock()
	s.epochKnown[peer] = false
	s.epochMu.Unlock()
	if old != nil {
		old.c.Close()
	}
	obs.Ctl(s.rank, peer, "conn revive", 0)
}

// acceptLoop installs inbound connections (lazy dials and redials) for
// the provider's lifetime.
func (s *stream) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		go s.handleHello(c)
	}
}

// handleHello validates an inbound connection's rank announcement,
// decides the simultaneous-dial tie-break and answers with a verdict
// byte. Decision and install share one critical section so concurrent
// hellos from the same peer serialize.
func (s *stream) handleHello(c net.Conn) {
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	var hello [8]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		c.Close()
		return
	}
	peer := int(binary.LittleEndian.Uint32(hello[:4]))
	if peer == s.rank || peer < 0 || peer >= s.size {
		obs.Ctl(s.rank, -1, "hello reject", int64(peer))
		c.Close()
		return
	}
	s.observeEpoch(peer, binary.LittleEndian.Uint32(hello[4:]))
	s.connsMu.Lock()
	if s.closed() {
		s.connsMu.Unlock()
		c.Close()
		return
	}
	if s.rank > peer && (s.dialing[peer] || s.conns[peer] != nil) {
		// Simultaneous dial: this side is the canonical dialer (higher
		// rank) and either has a dial in flight or already landed it —
		// tell the peer to wait for that connection instead of
		// installing a second one. The already-landed case matters:
		// accepting here would replace a healthy socket and discard
		// whatever the peer had buffered on it. If the peer dialed
		// because the link broke on its side, this side's read loop is
		// about to find out too (it is one socket); the teardown clears
		// conns[peer] and the peer's next dial attempt is accepted.
		s.connsMu.Unlock()
		_, _ = c.Write(s.verdict(helloYield))
		c.Close()
		obs.Ctl(s.rank, peer, "hello yield", 0)
		return
	}
	// Accept (replacing any stale predecessor). The verdict is written
	// inside the critical section so no frame can be written to the
	// published connection ahead of the verdict byte.
	if _, err := c.Write(s.verdict(helloAccept)); err != nil {
		s.connsMu.Unlock()
		c.Close()
		return
	}
	_ = c.SetDeadline(time.Time{})
	conn := s.installConnLocked(peer, c)
	s.connsMu.Unlock()
	go s.readLoop(conn)
}

// dialPeer connects to a peer, retrying with backoff until
// Config.DialTimeout. Used for lazy establishment and redial. A
// helloYield verdict makes it wait for the peer's inbound connection
// instead.
func (s *stream) dialPeer(peer int) error {
	readAddr := func() string {
		s.connsMu.RLock()
		defer s.connsMu.RUnlock()
		if s.addrs == nil {
			return ""
		}
		return s.addrs[peer]
	}
	if readAddr() == "" {
		return fmt.Errorf("fabric: rank %d has no address for rank %d (not joined)", s.rank, peer)
	}
	rng := rand.New(rand.NewSource(int64(s.rank)<<20 ^ int64(peer)))
	deadline := time.Now().Add(s.cfg.DialTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if s.closed() {
			return ErrClosed
		}
		s.connsMu.RLock()
		dead := s.down[peer]
		s.connsMu.RUnlock()
		if dead {
			// The rank was declared dead mid-campaign: abandon it. A
			// leftover campaign must not keep dialing — its refusals
			// would read as fresh hard evidence against the rank's next
			// incarnation once a replacement reconnects.
			return fmt.Errorf("%w: rank %d declared down", ErrLinkDown, peer)
		}
		// Re-read the address every attempt: a campaign started against a
		// dead incarnation must follow an UpdateAddr to the replacement's
		// listener mid-flight, not burn its whole window on the stale port
		// (stranding every queued send toward the revived rank behind it).
		addr := readAddr()
		c, err := net.DialTimeout(s.network, addr, time.Second)
		if err != nil && isConnRefused(err) && addr == readAddr() {
			// Refused means no listener at the address. If this side ever
			// held a connection to the peer, its listener existed — and a
			// listener lives exactly as long as its process, so refusal is
			// hard evidence of process death (soft only otherwise: a first
			// dial may simply be racing the peer's startup). The verdict
			// only stands if the address is still current — a refusal at a
			// port the rank has since been repointed away from describes
			// the dead predecessor, not the revived replacement.
			s.connsMu.RLock()
			ever := s.everConn[peer]
			s.connsMu.RUnlock()
			if ever {
				s.notifyPeerDown(peer, true)
			}
		}
		if err == nil {
			verdict, herr := s.sayHello(c, peer)
			switch {
			case herr != nil:
				err = herr
				c.Close()
			case verdict == helloAccept:
				s.connsMu.Lock()
				conn := s.installConnLocked(peer, c)
				s.connsMu.Unlock()
				go s.readLoop(conn)
				obs.Ctl(s.rank, peer, "dial ok", 0)
				return nil
			case verdict == helloYield:
				// The peer's own dial is on its way; wait for the install.
				c.Close()
				if s.awaitConn(peer, deadline, false) != nil {
					return nil
				}
				err = fmt.Errorf("fabric: rank %d yielded to rank %d's dial, which never arrived", s.rank, peer)
			default:
				err = fmt.Errorf("fabric: rank %d: bad hello verdict %#x from rank %d", s.rank, verdict, peer)
				c.Close()
			}
		}
		lastErr = err
		if time.Now().After(deadline) {
			obs.Ctl(s.rank, peer, "dial fail", 0)
			return fmt.Errorf("fabric: rank %d: peer rank %d unreachable at %q after %v: %w (%v)",
				s.rank, peer, addr, s.cfg.DialTimeout, ErrLinkDown, lastErr)
		}
		d := dialBackoff.Delay(attempt, rng)
		select {
		case <-s.done:
			return ErrClosed
		case <-time.After(d):
		}
	}
}

// sayHello announces the local rank and epoch on a fresh connection and
// reads the acceptor's verdict (one verdict byte plus the acceptor's own
// epoch — the reverse direction of the incarnation exchange, needed
// because only the dialing side sends a hello).
func (s *stream) sayHello(c net.Conn, peer int) (byte, error) {
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], uint32(s.rank))
	binary.LittleEndian.PutUint32(hello[4:], s.cfg.Epoch)
	if _, err := c.Write(hello[:]); err != nil {
		return 0, err
	}
	var verdict [5]byte
	if _, err := io.ReadFull(c, verdict[:]); err != nil {
		return 0, err
	}
	_ = c.SetDeadline(time.Time{})
	s.observeEpoch(peer, binary.LittleEndian.Uint32(verdict[1:]))
	return verdict[0], nil
}

// verdict encodes a handshake verdict frame: the verdict byte followed
// by this side's incarnation epoch.
func (s *stream) verdict(v byte) []byte {
	b := make([]byte, 5)
	b[0] = v
	binary.LittleEndian.PutUint32(b[1:], s.cfg.Epoch)
	return b
}

// observeEpoch records the incarnation number a peer announced in a
// connection handshake. A higher epoch than recorded, from a rank whose
// recorded incarnation this side knows (epochKnown), proves that
// incarnation dead — the launcher only increments the epoch when it
// restarts the rank — and is reported as a hard peer-down event, so the
// worker declares the death even while the replacement's own traffic
// keeps the rank looking noisy. No socket to the dead
// incarnation is required: a survivor that shared a communicator with it
// but never exchanged a frame would otherwise wait for it in the next
// agreement forever. A rank that joined later, or that just revived the
// peer, records the epoch silently: it has nothing to mourn.
func (s *stream) observeEpoch(peer int, epoch uint32) {
	s.epochMu.Lock()
	died := s.epochKnown[peer] && epoch > s.peerEpochs[peer]
	s.epochKnown[peer] = true
	if epoch > s.peerEpochs[peer] {
		s.peerEpochs[peer] = epoch
	}
	s.epochMu.Unlock()
	if died {
		obs.Ctl(s.rank, peer, "epoch death", int64(epoch))
		s.notifyPeerDown(peer, true)
	}
}

// awaitConn blocks until a connection to peer is installed and returns
// it; nil when the deadline passes or the provider closes first, or —
// with campaign set — once no dial campaign toward the peer is running.
func (s *stream) awaitConn(peer int, deadline time.Time, campaign bool) *streamConn {
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for {
		s.connsMu.RLock()
		c, dialing, changed := s.conns[peer], s.dialing[peer], s.connChanged
		s.connsMu.RUnlock()
		if c != nil || (campaign && !dialing) {
			return c
		}
		select {
		case <-changed:
		case <-timeout.C:
			return nil
		case <-s.done:
			return nil
		}
	}
}

// installConnLocked publishes a connection for peer (replacing any broken
// predecessor). Caller holds connsMu and starts the read loop after
// releasing it.
func (s *stream) installConnLocked(peer int, c net.Conn) *streamConn {
	s.lastGen++
	conn := &streamConn{peer: peer, gen: s.lastGen, c: c}
	old := s.conns[peer]
	s.setConnLocked(peer, conn)
	s.everConn[peer] = true
	delete(s.dialing, peer)
	close(s.connChanged)
	s.connChanged = make(chan struct{})
	var replaced int64
	if old != nil {
		replaced = 1
		old.c.Close()
	}
	obs.Ctl(s.rank, peer, "conn install", replaced)
	return conn
}

// setConnLocked makes c (nil: none) the connection to peer. Caller holds
// connsMu.
func (s *stream) setConnLocked(peer int, c *streamConn) {
	s.conns[peer] = c
	var gen uint64
	if c != nil {
		gen = c.gen
	}
	s.connGen[peer].Store(gen)
}

// Drop sites: which I/O path saw the socket fail, recorded as the Arg of
// a "conn drop" control event.
const (
	dropSiteHeader  int64 = 1 // readLoop: frame header read failed
	dropSitePayload int64 = 2 // readLoop: frame payload read failed
	dropSiteWrite   int64 = 3 // writeFrame: gather write failed
)

// dropConn tears down a broken connection, fails its outstanding Gets
// with ErrLinkDown, and — when this side is the canonical dialer (the
// higher rank) — starts a redial campaign. The lower rank's senders kick
// their own campaign from conn() when they next need the link.
//
// A write-site drop does NOT close the socket: only the send direction
// is known dead, and the kernel may still hold inbound frames the peer
// flushed before its end went away. Stream sockets deliver buffered
// data up to EOF — unless the reader closes first, which discards it.
// Those last frames matter: a peer that exits right after opening a
// pair's shared-memory ring announces the ring on the socket, and eating
// that announcement leaves this side blind to a ring that holds the
// peer's final frames. The read loop keeps draining and closes
// the socket itself when it hits EOF (its own dropConn lands in the
// stale branch below).
func (s *stream) dropConn(conn *streamConn, site int64) {
	if s.closed() {
		return
	}
	s.connsMu.Lock()
	if s.conns[conn.peer] != conn {
		// Already replaced or dropped by a concurrent failure. The drop
		// hook still fires: a replaced socket's late read error is often
		// the only local evidence that the peer re-dialed (its revival
		// installed the new conn before the old one's EOF surfaced), and
		// the provider above must re-key its establishment either way.
		s.connsMu.Unlock()
		obs.Ctl(s.rank, conn.peer, "conn drop stale", site)
		if site == dropSiteWrite {
			s.connsMu.Lock()
			s.drainingLocked(conn)
			s.connsMu.Unlock()
		} else {
			conn.c.Close()
		}
		s.notifyConnDrop(conn.peer)
		return
	}
	s.setConnLocked(conn.peer, nil)
	obs.Ctl(s.rank, conn.peer, "conn drop", site)
	s.connDrops.Add(1)
	if s.rank > conn.peer {
		s.startDialLocked(conn.peer, true)
	}
	if site == dropSiteWrite {
		s.drainingLocked(conn)
	}
	s.connsMu.Unlock()
	if site != dropSiteWrite {
		conn.c.Close()
	}
	// An established link breaking (EOF, write error) is soft suspicion:
	// a dead peer's sockets always break, but a broken socket does not
	// prove a dead peer.
	s.notifyConnDrop(conn.peer)
	s.notifyPeerDown(conn.peer, false)
	s.failGets(conn.peer)
}

// startDialLocked launches a dial campaign toward peer unless one is
// already running. redial marks a campaign that re-establishes a link
// which existed before (the redial gauges count those). Caller holds
// connsMu; installConnLocked clears the dialing mark on success.
func (s *stream) startDialLocked(peer int, redial bool) {
	if s.dialing[peer] {
		return
	}
	s.dialing[peer] = true
	if redial {
		s.redials.Add(1)
	}
	go func() {
		if err := s.dialPeer(peer); err != nil {
			// Give up: the link stays down and sends keep returning
			// ErrLinkDown (a waiting first-contact sender reports its
			// own timeout).
			s.connsMu.Lock()
			delete(s.dialing, peer)
			close(s.connChanged)
			s.connChanged = make(chan struct{})
			s.connsMu.Unlock()
			return
		}
		if redial {
			s.redialsOK.Add(1)
		}
	}()
}

// notifyConnDrop dispatches the provider's conn-drop hook off the
// calling goroutine: drops fire from send paths that may hold the SHM
// provider's per-pair locks, and the hook takes those same locks.
func (s *stream) notifyConnDrop(peer int) {
	if s.onConnDrop != nil {
		go s.onConnDrop(peer)
	}
}

// failGets fails every outstanding Get against peer so pullers blocked
// on a dead connection unblock and can retry.
func (s *stream) failGets(peer int) {
	s.getMu.Lock()
	defer s.getMu.Unlock()
	for _, g := range s.gets {
		if g.peer != peer {
			continue
		}
		g.finish(fmt.Errorf("%w: connection to rank %d broke mid-pull", ErrLinkDown, peer))
	}
}

// closed reports whether Close has run.
func (s *stream) closed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *stream) Rank() int { return s.rank }
func (s *stream) Size() int { return s.size }

// PoolOutstanding returns the number of frame buffers currently checked
// out of this endpoint's pool (zero when quiesced); see
// Inproc.PoolOutstanding.
func (s *stream) PoolOutstanding() int64 { return s.pool.Outstanding() }

// NumConns returns how many peer links are currently established — the
// lazy-dialing observability hook (a rank that only ever talked to k
// peers holds k connections, not Size-1).
func (s *stream) NumConns() int {
	s.connsMu.RLock()
	defer s.connsMu.RUnlock()
	n := 0
	for _, c := range s.conns {
		if c != nil {
			n++
		}
	}
	return n
}

func encodeHeader(b *[headerWireSize]byte, hdr Header) {
	b[0] = byte(hdr.Kind)
	b[1] = hdr.Flags
	binary.LittleEndian.PutUint64(b[2:], hdr.Tag)
	binary.LittleEndian.PutUint64(b[10:], hdr.MsgID)
	binary.LittleEndian.PutUint64(b[18:], uint64(hdr.Offset))
	binary.LittleEndian.PutUint64(b[26:], uint64(hdr.Total))
	binary.LittleEndian.PutUint64(b[34:], uint64(hdr.Aux0))
	binary.LittleEndian.PutUint64(b[42:], uint64(hdr.Aux1))
}

func decodeHeader(b []byte) Header {
	return Header{
		Kind:   Kind(b[0]),
		Flags:  b[1],
		Tag:    binary.LittleEndian.Uint64(b[2:]),
		MsgID:  binary.LittleEndian.Uint64(b[10:]),
		Offset: int64(binary.LittleEndian.Uint64(b[18:])),
		Total:  int64(binary.LittleEndian.Uint64(b[26:])),
		Aux0:   int64(binary.LittleEndian.Uint64(b[34:])),
		Aux1:   int64(binary.LittleEndian.Uint64(b[42:])),
	}
}

// writeFrame sends one length-prefixed frame using a gather write. A
// socket failure tears the connection down (starting redial where this
// side dials) and reports ErrLinkDown.
func (s *stream) writeFrame(conn *streamConn, hdr Header, payload ...[]byte) error {
	total := 0
	for _, p := range payload {
		total += len(p)
	}
	if total > MaxFragSize {
		return fmt.Errorf("fabric: fragment of %d bytes exceeds max %d", total, MaxFragSize)
	}
	var pre [4 + headerWireSize]byte
	binary.LittleEndian.PutUint32(pre[:4], uint32(total))
	var hb [headerWireSize]byte
	encodeHeader(&hb, hdr)
	copy(pre[4:], hb[:])
	bufs := make(net.Buffers, 0, 1+len(payload))
	bufs = append(bufs, pre[:])
	for _, p := range payload {
		if len(p) > 0 {
			bufs = append(bufs, p)
		}
	}
	conn.wmu.Lock()
	_, err := bufs.WriteTo(conn.c)
	conn.wmu.Unlock()
	if err != nil {
		s.dropConn(conn, dropSiteWrite)
		return fmt.Errorf("%w: write to rank %d: %v", ErrLinkDown, conn.peer, err)
	}
	return nil
}

func (s *stream) Send(to int, hdr Header, payload ...[]byte) error {
	_, err := s.sendOn(to, hdr, payload...)
	return err
}

// sendOn is Send, reporting the generation of the connection the frame
// went out on.
func (s *stream) sendOn(to int, hdr Header, payload ...[]byte) (uint64, error) {
	conn, err := s.conn(to)
	if err != nil {
		return 0, err
	}
	return conn.gen, s.writeFrame(conn, hdr, payload...)
}

func (s *stream) SendFrom(to int, hdr Header, src Source, off, size int64) (int64, error) {
	conn, err := s.conn(to)
	if err != nil {
		return 0, err
	}
	if size > MaxFragSize {
		return 0, fmt.Errorf("fabric: fragment of %d bytes exceeds max %d", size, MaxFragSize)
	}
	// If the source exposes direct windows, gather them straight into the
	// socket; otherwise pack into a staging buffer first.
	if sw := walk(src, off); sw.direct() {
		bufs := make([][]byte, 0, 8)
		at, left := off, size
		for left > 0 {
			w := sw.window(at, left)
			if len(w) == 0 {
				bufs = nil
				break
			}
			bufs = append(bufs, w)
			at += int64(len(w))
			left -= int64(len(w))
		}
		if bufs != nil {
			return size, s.writeFrame(conn, hdr, bufs...)
		}
	}
	buf := s.pool.get(int(size))
	defer buf.Release()
	staging := buf.Payload
	got, err := src.ReadAt(staging, off)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if got == 0 && size > 0 {
		return 0, ErrShortTransfer
	}
	return int64(got), s.writeFrame(conn, hdr, staging[:got])
}

// conn returns the live connection to a peer, lazily establishing the
// first one: the initial send toward a peer dials it (blocking up to
// Config.DialTimeout and failing with an error that names the peer and
// its address when it is unreachable). After a link has existed once, a
// broken link fails fast with ErrLinkDown while the redial campaign runs
// — the transport layer's retry/timeout machinery owns that wait.
func (s *stream) conn(to int) (*streamConn, error) {
	if to < 0 || to >= s.size {
		return nil, rangeErr("destination", to, s.size)
	}
	if to == s.rank {
		return nil, errors.New("fabric: self-send not supported over byte-stream providers")
	}
	s.connsMu.RLock()
	c := s.conns[to]
	s.connsMu.RUnlock()
	if c != nil {
		return c, nil
	}
	if s.closed() {
		return nil, ErrClosed
	}
	// No link. Decide between lazy first establishment (block) and
	// broken-link fast failure.
	s.connsMu.Lock()
	if c = s.conns[to]; c != nil {
		s.connsMu.Unlock()
		return c, nil
	}
	if s.down[to] {
		// Declared dead: fail fast. The transport already knows (the
		// declaration came from it), so blocking a dial window here
		// would only strand the posting goroutine.
		s.connsMu.Unlock()
		return nil, fmt.Errorf("%w: rank %d declared down", ErrLinkDown, to)
	}
	if s.everConn[to] {
		// Broken link: fail this send fast (the transport layer's
		// retry/timeout machinery owns the wait) but make sure a redial
		// campaign is running. dropConn only redials from the higher
		// rank — the deterministic dialer — yet with retransmitting
		// senders the traffic can live entirely on the lower side: a
		// receiver that already acked has no reason to dial back, and
		// without this campaign every resend would die on ErrLinkDown
		// until the retransmission budget expired.
		if s.addrs != nil {
			s.startDialLocked(to, true)
		}
		s.connsMu.Unlock()
		return nil, fmt.Errorf("%w: no connection to rank %d", ErrLinkDown, to)
	}
	if s.addrs == nil {
		s.connsMu.Unlock()
		return nil, fmt.Errorf("fabric: rank %d has no address table yet (Join not called)", s.rank)
	}
	s.startDialLocked(to, false)
	addr := s.addrs[to]
	s.connsMu.Unlock()

	if c = s.awaitConn(to, time.Now().Add(s.cfg.DialTimeout), true); c != nil {
		return c, nil
	}
	if s.closed() {
		return nil, ErrClosed
	}
	return nil, fmt.Errorf("%w: rank %d: peer rank %d unreachable at %q (dial timeout %v)",
		ErrLinkDown, s.rank, to, addr, s.cfg.DialTimeout)
}

// sever closes the socket to peer, if any: a provider extension's way of
// turning a fault of its own into an ordinary link failure on both sides.
func (s *stream) sever(peer int) {
	s.connsMu.RLock()
	defer s.connsMu.RUnlock()
	if c := s.conns[peer]; c != nil {
		c.c.Close()
	}
}

func (s *stream) Recv() (*Packet, bool) {
	select {
	case pkt := <-s.inbox:
		return pkt, true
	case <-s.done:
		select {
		case pkt := <-s.inbox:
			return pkt, true
		default:
			return nil, false
		}
	}
}

// Handoff is declined: frames arrive on read goroutines that must keep
// reading, and the SHM provider's Recv drains its rings itself.
func (s *stream) Handoff(*sync.Mutex, func(*Packet)) bool { return false }

// deliver pushes a packet into the inbox (used by the read loops and by
// the SHM provider's in-band ring markers). It reports false when the
// provider shut down before delivery.
func (s *stream) deliver(pkt *Packet) bool {
	select {
	case s.inbox <- pkt:
		return true
	case <-s.done:
		return false
	}
}

func (s *stream) Register(src Source) uint64 {
	key := s.nextKey.Add(1)
	s.regMu.Lock()
	s.regs[key] = src
	s.regMu.Unlock()
	return key
}

func (s *stream) Deregister(key uint64) { s.unregister(key) }

// unregister revokes key and returns what it named (nil if nothing).
func (s *stream) unregister(key uint64) Source {
	s.regMu.Lock()
	src := s.regs[key]
	delete(s.regs, key)
	delete(s.served, key)
	s.regMu.Unlock()
	return src
}

func (s *stream) Served(key uint64) bool {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.served[key]
}

// serveReg resolves the source a Get request names and records it served
// (the socket server here, the SHM provider's pull serve): once a Get
// request, which is a frame, not once a fragment.
func (s *stream) serveReg(key uint64) (Source, bool) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	src, ok := s.regs[key]
	if ok {
		s.served[key] = true
	}
	return src, ok
}

func (s *stream) Get(from int, key uint64, off int64, sink Sink, sinkOff, size int64) error {
	return s.getVia(from, Header{Offset: off, Total: size, Aux1: int64(key)}, sink, sinkOff, nil)
}

// getVia registers a Get (where response frames, kindGetErr and link loss
// find it), sends req under its id and waits for its end: with wait when
// non-nil (the SHM provider drains its pull ring there), else for the
// response frames the read loop lands.
func (s *stream) getVia(from int, req Header, sink Sink, sinkOff int64, wait func(*streamGet) error) error {
	if req.Total == 0 {
		return nil
	}
	conn, err := s.conn(from)
	if err != nil {
		return err
	}
	id := s.nextGet.Add(1)
	g := &streamGet{id: id, peer: from, sink: sink, sinkOff: sinkOff - req.Offset, left: req.Total, done: make(chan error, 1)}
	s.getMu.Lock()
	s.gets[id] = g
	s.getMu.Unlock()
	defer func() {
		s.getMu.Lock()
		delete(s.gets, id)
		s.getMu.Unlock()
	}()
	req.Kind, req.MsgID = kindGetReq, id
	if err := s.writeFrame(conn, req); err != nil {
		return err
	}
	if wait != nil {
		return wait(g)
	}
	select {
	case err := <-g.done:
		return err
	case <-s.done:
		return ErrClosed
	}
}

// lookupGet resolves an outstanding Get by id.
func (s *stream) lookupGet(id uint64) *streamGet {
	s.getMu.Lock()
	g := s.gets[id]
	s.getMu.Unlock()
	return g
}

// serveGet streams a registered source back to the requester in fragments.
// With Config.Checksum set, every response frame carries a CRC32C of its
// payload in Aux0 for verification before delivery.
func (s *stream) serveGet(conn *streamConn, hdr Header) {
	src, ok := s.serveReg(uint64(hdr.Aux1))
	fail := func(msg string) {
		_ = s.writeFrame(conn, Header{Kind: kindGetErr, MsgID: hdr.MsgID}, []byte(msg))
	}
	if !ok {
		fail(ErrBadKey.Error())
		return
	}
	off, left := hdr.Offset, hdr.Total
	pb := s.pool.get(s.cfg.FragSize)
	defer pb.Release()
	buf := pb.Payload
	for left > 0 {
		step := int64(len(buf))
		if step > left {
			step = left
		}
		n, err := src.ReadAt(buf[:step], off)
		if err != nil && err != io.EOF {
			fail(err.Error())
			return
		}
		if n == 0 {
			fail(ErrShortTransfer.Error())
			return
		}
		resp := Header{Kind: kindGetResp, MsgID: hdr.MsgID, Offset: off, Total: hdr.Total}
		if s.cfg.Checksum {
			resp.Aux0 = int64(CRC32(buf[:n]))
		}
		if err := s.writeFrame(conn, resp, buf[:n]); err != nil {
			return
		}
		off += int64(n)
		left -= int64(n)
	}
}

// finish completes a Get with err (nil: every byte landed) unless it was
// completed already. It never waits: the read loop that calls it reads
// every frame of the connection, heartbeats included, and a second
// completion must not park it (shared by the read loop and provider
// extensions).
func (g *streamGet) finish(err error) {
	select {
	case g.done <- err:
	default:
	}
}

// drainingLocked records a write-dropped connection for Close while its
// read loop still runs; one that returned closed the socket already.
// Caller holds connsMu.
func (s *stream) drainingLocked(conn *streamConn) {
	if !conn.readDone {
		s.draining[conn] = struct{}{}
	}
}

func (s *stream) readLoop(conn *streamConn) {
	// The read loop is the last user of a write-dropped ("draining")
	// connection's socket; close it on the way out no matter which path
	// dropped it (net.Conn.Close is idempotent).
	defer func() {
		s.connsMu.Lock()
		conn.readDone = true
		delete(s.draining, conn)
		s.connsMu.Unlock()
		conn.c.Close()
	}()
	br := conn.c
	var pre [4 + headerWireSize]byte
	for {
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			s.dropConn(conn, dropSiteHeader)
			return
		}
		plen := int(binary.LittleEndian.Uint32(pre[:4]))
		if plen > MaxFragSize {
			// No writer frames more (writeFrame): the stream is corrupt.
			s.dropConn(conn, dropSiteHeader)
			return
		}
		hdr := decodeHeader(pre[4:])
		// Frames consumed inline release their packet here; inbox packets
		// carry the payload until the transport calls Release.
		pkt := s.pool.get(plen)
		pkt.From, pkt.Hdr = conn.peer, hdr
		payload := pkt.Payload
		if _, err := io.ReadFull(br, payload); err != nil {
			pkt.Release()
			s.dropConn(conn, dropSitePayload)
			return
		}
		if hdr.Kind >= kindProviderCtrlMin && s.ctrl != nil {
			pkt.Release() // control frames carry no payload worth keeping
			s.ctrl(conn, hdr)
			continue
		}
		switch hdr.Kind {
		case kindGetReq:
			pkt.Release()
			if hdr.Flags&flagGetWindow != 0 && s.onPull != nil {
				go s.onPull(conn, hdr)
			} else {
				go s.serveGet(conn, hdr)
			}
		case kindGetResp:
			g := s.lookupGet(hdr.MsgID)
			if g == nil {
				pkt.Release()
				continue
			}
			if s.cfg.Checksum && CRC32(payload) != uint32(uint64(hdr.Aux0)) {
				s.checksumErrs.Add(1)
				pkt.Release()
				g.finish(fmt.Errorf("%w: rendezvous pull frame at offset %d", ErrCorrupt, hdr.Offset))
				continue
			}
			_, err := g.sink.WriteAt(payload, g.sinkOff+hdr.Offset)
			pkt.Release()
			if err != nil {
				g.finish(err)
				continue
			}
			if atomic.AddInt64(&g.left, -int64(plen)) <= 0 {
				g.finish(nil)
			}
		case kindGetErr:
			if g := s.lookupGet(hdr.MsgID); g != nil {
				g.finish(errors.New("fabric: remote get: " + string(payload)))
			}
			pkt.Release()
		default:
			if !s.deliver(pkt) {
				pkt.Release()
				return
			}
		}
	}
}

// Close shuts the provider down and closes all sockets.
func (s *stream) Close() error {
	s.once.Do(func() {
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
		s.connsMu.Lock()
		conns := append([]*streamConn(nil), s.conns...)
		for c := range s.draining {
			conns = append(conns, c)
		}
		s.connsMu.Unlock()
		for _, c := range conns {
			if c != nil {
				c.c.Close()
			}
		}
	})
	return nil
}
