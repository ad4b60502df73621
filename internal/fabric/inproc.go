package fabric

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Inproc is an in-process fabric: every rank is a goroutine, links are
// channels, and rendezvous Gets read the remote Source directly (the
// shared-memory analogue of an RDMA read).
type Inproc struct {
	cfg  Config
	nics []*inprocNIC
	pool *bufPool // wire buffers in FragSize-multiple size classes

	regMu   sync.RWMutex
	regs    map[regKey]Source
	nextKey atomic.Uint64
}

type regKey struct {
	rank int
	key  uint64
}

// NewInproc creates an in-process fabric with n ranks.
func NewInproc(n int, cfg Config) *Inproc {
	cfg = NewConfig(cfg)
	f := &Inproc{
		cfg:  cfg,
		pool: newBufPool(cfg.FragSize),
		regs: make(map[regKey]Source),
	}
	if reg := cfg.registry(); reg != nil {
		reg.GaugeFunc("fabric.pool_outstanding", f.pool.Outstanding)
	}
	f.nics = make([]*inprocNIC, n)
	for i := range f.nics {
		f.nics[i] = &inprocNIC{
			fab:   f,
			rank:  i,
			inbox: make(chan *Packet, inboxDepth),
			done:  make(chan struct{}),
		}
	}
	return f
}

// NIC returns rank's attachment.
func (f *Inproc) NIC(rank int) NIC { return f.nics[rank] }

// Size returns the number of ranks.
func (f *Inproc) Size() int { return len(f.nics) }

// Close closes every NIC on the fabric.
func (f *Inproc) Close() {
	for _, n := range f.nics {
		n.Close()
	}
}

// PoolOutstanding returns the number of wire buffers currently checked
// out of the fabric's pool — zero once every packet has been released.
// Leak checks diff it across a workload (obs.LeakGauge).
func (f *Inproc) PoolOutstanding() int64 { return f.pool.Outstanding() }

type inprocNIC struct {
	fab   *Inproc
	rank  int
	inbox chan *Packet
	done  chan struct{}

	// The consumer's Handoff, and what keeps a packet handed over from
	// passing one sent through the inbox: queued counts the packets sent
	// through it that the consumer is not done with — queued, or the last
	// one Recv returned (inHand, the consumer's own) until the consumer
	// comes back for the next.
	consumer atomic.Pointer[consumer]
	queued   atomic.Int64
	inHand   bool

	closeOne sync.Once
}

// consumer is what Handoff was given: the handler and the lock it runs under.
type consumer struct {
	mu     *sync.Mutex
	handle func(*Packet)
}

func (n *inprocNIC) Rank() int      { return n.rank }
func (n *inprocNIC) Size() int      { return len(n.fab.nics) }
func (n *inprocNIC) Config() Config { return n.fab.cfg }

// Link: channels lose and reorder nothing (a packet handed over on the
// sender's goroutine waits for the ones queued before it, see handOff), a
// Get copies on the caller's goroutine, and every rank lives and dies with
// this process.
func (n *inprocNIC) Link() Link { return Link{Lossless: true, LocalGet: true} }

func (n *inprocNIC) Send(to int, hdr Header, payload ...[]byte) error {
	total := 0
	for _, p := range payload {
		total += len(p)
	}
	if total > MaxFragSize {
		return fmt.Errorf("fabric: fragment of %d bytes exceeds max %d", total, MaxFragSize)
	}
	pkt := n.fab.pool.get(total)
	at := 0
	for _, p := range payload {
		at += copy(pkt.Payload[at:], p) // staging copy into the wire buffer
	}
	return n.deliver(to, hdr, pkt)
}

func (n *inprocNIC) SendFrom(to int, hdr Header, src Source, off, size int64) (int64, error) {
	if size > MaxFragSize {
		return 0, fmt.Errorf("fabric: fragment of %d bytes exceeds max %d", size, MaxFragSize)
	}
	pkt := n.fab.pool.get(int(size))
	got, err := src.ReadAt(pkt.Payload, off) // staging copy (packing) into the wire buffer
	if err != nil && err != io.EOF {
		pkt.Release()
		return 0, err
	}
	if got == 0 && size > 0 {
		pkt.Release()
		return 0, ErrShortTransfer
	}
	pkt.Payload = pkt.Payload[:got]
	return int64(got), n.deliver(to, hdr, pkt)
}

// deliver stamps the packet and gives it to an idle consumer on this
// goroutine (handOff), else queues it. deliver and Recv try the inbox
// without blocking first: a queue with room (or with a packet waiting) is
// the steady state, and a one-case select with a default is a plain channel
// operation, not a selectgo.
func (n *inprocNIC) deliver(to int, hdr Header, pkt *Packet) error {
	if to < 0 || to >= len(n.fab.nics) {
		pkt.Release()
		return rangeErr("destination", to, len(n.fab.nics))
	}
	pkt.From, pkt.Hdr = n.rank, hdr
	peer := n.fab.nics[to]
	if to != n.rank {
		if took, err := peer.handOff(pkt); took {
			return err
		}
	}
	select {
	case <-peer.done:
		pkt.Release()
		return ErrClosed
	default:
	}
	peer.queued.Add(1)
	select {
	case peer.inbox <- pkt:
		return nil
	default:
	}
	select {
	case <-peer.done:
		pkt.Release()
		return ErrClosed
	case peer.inbox <- pkt:
		return nil
	}
}

// Recv counts the consumer done with the packet it returned last: the
// consumer is back for the next.
func (n *inprocNIC) Recv() (*Packet, bool) {
	if n.inHand {
		n.inHand = false
		n.queued.Add(-1)
	}
	pkt, ok := n.next()
	n.inHand = ok
	return pkt, ok
}

func (n *inprocNIC) next() (*Packet, bool) {
	select {
	case pkt := <-n.inbox:
		return pkt, true
	default:
	}
	select {
	case pkt := <-n.inbox:
		return pkt, true
	case <-n.done:
		// Drain anything that raced in before close.
		select {
		case pkt := <-n.inbox:
			return pkt, true
		default:
			return nil, false
		}
	}
}

// Handoff is taken: a sender that finds the consumer idle runs its handler
// (handOff) instead of waking it through the inbox.
func (n *inprocNIC) Handoff(mu *sync.Mutex, handle func(*Packet)) bool {
	n.consumer.Store(&consumer{mu: mu, handle: handle})
	return true
}

// handOff runs pkt through the consumer's handler on the calling goroutine
// if the consumer is idle: nothing sent through the inbox is still queued
// or in its hands, and its lock is free. It reports whether it took the
// packet. The closed check is made under the lock, which the consumer's
// sweep at close holds too, so a packet handled here is in place before
// the sweep, or is given back with ErrClosed.
func (n *inprocNIC) handOff(pkt *Packet) (bool, error) {
	c := n.consumer.Load()
	if c == nil || n.queued.Load() != 0 || !c.mu.TryLock() {
		return false, nil
	}
	defer c.mu.Unlock()
	select {
	case <-n.done:
		pkt.Release()
		return true, ErrClosed
	default:
	}
	c.handle(pkt)
	return true, nil
}

func (n *inprocNIC) Register(src Source) uint64 {
	key := n.fab.nextKey.Add(1)
	n.fab.regMu.Lock()
	n.fab.regs[regKey{n.rank, key}] = src
	n.fab.regMu.Unlock()
	return key
}

func (n *inprocNIC) Deregister(key uint64) {
	n.fab.regMu.Lock()
	delete(n.fab.regs, regKey{n.rank, key})
	n.fab.regMu.Unlock()
}

// Served is false: a Get reads the source on the requester's goroutine, and
// the exporter takes no part in it.
func (n *inprocNIC) Served(uint64) bool { return false }

func (n *inprocNIC) Get(from int, key uint64, off int64, sink Sink, sinkOff, size int64) error {
	if from < 0 || from >= len(n.fab.nics) {
		return rangeErr("source", from, len(n.fab.nics))
	}
	n.fab.regMu.RLock()
	src, ok := n.fab.regs[regKey{from, key}]
	n.fab.regMu.RUnlock()
	if !ok {
		return ErrBadKey
	}
	bounce := n.fab.pool.get(n.fab.cfg.FragSize)
	defer bounce.Release()
	return pull(src, off, sink, sinkOff, size, bounce.Payload)
}

// Membership: in-process ranks are goroutines that cannot die or move, so
// the notifications are no-ops and there is no address to update.
func (n *inprocNIC) DeclareRankDown(int)             {}
func (n *inprocNIC) ReviveRank(int)                  {}
func (n *inprocNIC) SetPeerDownHook(func(int, bool)) {}
func (n *inprocNIC) UpdateAddr(int, string) error {
	return errors.New("fabric: in-process fabric has no dialable addresses")
}

func (n *inprocNIC) Close() error {
	n.closeOne.Do(func() { close(n.done) })
	// Give back what nobody will receive any more; on every call, because
	// a sender that checked done just before it closed can still slip a
	// packet in behind the owner's last Recv.
	for {
		select {
		case pkt := <-n.inbox:
			pkt.Release()
		default:
			return nil
		}
	}
}
