// Package fabric provides the simulated network substrate underneath the
// UCP-like transport layer.
//
// The paper's prototype ran on two InfiniBand-connected nodes through
// UCX/UCP. This package substitutes a fabric abstraction with three
// providers:
//
//   - inproc: ranks are goroutines in one process; links are channels and
//     every wire crossing is charged an explicit staging copy, exactly like
//     a NIC moving bytes through its send/receive rings. Rendezvous
//     transfers use a registered-memory "Get" that copies directly from the
//     remote Source into the local Sink (the shared-memory analogue of an
//     RDMA read).
//   - tcp: ranks are separate processes; packets travel over real sockets
//     with gather writes (net.Buffers, the writev analogue of an iovec
//     send) and the Get primitive is implemented as a request/response
//     protocol.
//   - shm: ranks are separate processes on one node; eager frames cross
//     shared-memory rings and a Get reads the exporter's memory in place.
//
// The copy accounting is what makes the paper's results reproducible:
// packed sends pay user-pack + wire + user-unpack copies while region
// (iovec) sends let the wire read user memory directly.
package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"mpicd/internal/obs"
)

// Kind identifies the protocol-level meaning of a packet. The fabric does
// not interpret it; the transport layer above defines the values below
// the reserved range.
type Kind uint8

// Kinds at and above KindFabricReserved belong to the providers' own frames
// (byte-stream providers use 0xF7..), which their read loops consume;
// transport layers must allocate their kinds below it.
const KindFabricReserved Kind = 0xF0

// Header is the fixed-size packet header. The transport layer owns the
// interpretation of every field except From, which the fabric fills in.
type Header struct {
	Kind   Kind
	Flags  uint8
	Tag    uint64
	MsgID  uint64
	Offset int64 // byte offset of this fragment within its message
	Total  int64 // total message payload bytes
	Aux0   int64 // transport-defined (e.g. packed-part length)
	Aux1   int64 // transport-defined (e.g. remote memory key)
}

// headerWireSize is the encoded size of a Header on byte-stream providers.
const headerWireSize = 1 + 1 + 8 + 8 + 8 + 8 + 8 + 8

// Packet is a received wire buffer. Payload aliases fabric-owned memory and
// is valid only until Release is called; receivers must copy out (or consume
// through a Sink) before releasing.
//
// A packet has a single consumer at a time: whoever Recv (or a Handoff
// handler) handed it to, or whoever that consumer passed it on to. Release
// recycles the Packet together with its wire buffer, so the consumer calls
// it exactly once and does not touch the packet — header included —
// afterwards.
type Packet struct {
	From    int
	Hdr     Header
	Payload []byte
	pool    *bufPool // where Release returns the packet; nil for hand-built ones
	buf     []byte   // the pooled buffer Payload is cut from, kept across uses
}

// poison is what test binaries overwrite a released payload with (nil
// elsewhere), so a consumer that reads a packet it already gave back
// fails loudly.
var poison = func() []byte {
	if !testing.Testing() {
		return nil
	}
	return bytes.Repeat([]byte{0xDB}, 4096)
}()

// Release returns the Packet and its wire buffer to the fabric. It is a
// no-op on the zero value and on a second call made before the packet is
// handed out again.
func (p *Packet) Release() {
	pool := p.pool
	if pool == nil {
		return
	}
	for b := p.Payload; len(b) > 0 && poison != nil; b = b[copy(b, poison):] {
	}
	*p = Packet{buf: p.buf}
	pool.outstanding.Add(-1)
	pool.classes[len(p.buf)/pool.frag].Put(p)
}

// NIC is one rank's attachment to the fabric.
//
// Send-side calls copy bytes into fabric-owned wire buffers (the staging
// copy every real NIC pays on the host side unless it does zero-copy DMA).
// Get is the zero-copy path: it moves bytes from a remote registered Source
// into a local Sink with the minimum number of copies the endpoints allow
// (one when both expose direct windows).
type NIC interface {
	// Rank returns this NIC's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks on the fabric.
	Size() int

	// Send copies the payload slices, in order, into a single wire buffer
	// and delivers it to rank `to`. The total payload must not exceed
	// MaxFragSize. Gather semantics: the scatter list is flattened on the
	// wire, exactly like writev.
	Send(to int, hdr Header, payload ...[]byte) error

	// SendFrom reads up to n bytes at offset off from src into the wire
	// buffer (one staging copy) and delivers the fragment to rank `to`.
	// It returns the number of bytes actually packed and sent, which may
	// be less than n when the source packs partially (the custom-datatype
	// pack callback is allowed to underfill a fragment). A zero-byte pack
	// before the source is exhausted is reported as ErrShortTransfer.
	SendFrom(to int, hdr Header, src Source, off, n int64) (int64, error)

	// Recv blocks for the next inbound packet. ok is false after Close.
	Recv() (pkt *Packet, ok bool)

	// Handoff offers the provider the consumer's per-packet handler and
	// the progress lock mu the consumer runs it under for every packet
	// Recv returns, and reports whether the provider takes the offer. One
	// that does may instead run handle itself, holding mu, on the
	// goroutine of another rank's Send: only when it wins mu with TryLock
	// and no earlier packet for this NIC is queued or still in the
	// consumer's hands (returned by Recv, the consumer not yet back for
	// the next), so packets from one sender keep their order. A packet
	// for a closed NIC is released there, under mu, and a self-send always
	// queues. So handle runs on foreign goroutines, one at a time, and
	// must not send synchronously: that Send could run the handler of the
	// rank whose Send is below it on the stack, while that rank's caller
	// holds its locks. Wrappers inherit it by embedding; one that changes
	// what Recv returns says no itself.
	Handoff(mu *sync.Mutex, handle func(*Packet)) bool

	// Register exposes src for remote Get operations and returns its key.
	Register(src Source) uint64
	// Deregister revokes a key returned by Register.
	Deregister(key uint64)
	// Served reports whether this provider has served a peer's Get of the
	// source registered under key — its evidence that the peer holds the
	// rendezvous announcement. A Get the exporter takes no part in (the
	// in-process one, SHM's in-place read: memory copies the requester
	// makes) leaves it false.
	Served(key uint64) bool
	// Get pulls n bytes at offset off of the remote Source registered
	// under key at rank `from`, writing them at offset sinkOff of sink.
	Get(from int, key uint64, off int64, sink Sink, sinkOff, n int64) error

	// Close detaches the NIC; pending and future Recv calls return ok=false.
	Close() error

	// Config returns the provider's resolved configuration (defaults
	// filled in). It is the one home of the facts every layer above shares:
	// the fragment size, integrity checking, this process's incarnation and
	// the observer; wrappers inherit it by embedding.
	Config() Config

	// Link states what the provider's link is. Unlike Config nothing in it
	// is set: it follows from the provider (and from a fault plan that
	// degrades it); wrappers inherit it by embedding.
	Link() Link

	Membership
}

// Link is what a provider's link is, as the layers above need to know it.
type Link struct {
	// Lossless: a Send that returned nil toward a live peer reaches the
	// peer's Recv once, after every frame a Send accepted before it for
	// that peer, and the link to a live peer does not go down. Only a death
	// verdict or the peer's exit strands a frame, and a Send refused with
	// ErrLinkDown means one of the two happened.
	Lossless bool
	// LocalGet: a Get is a memory copy made by the calling goroutine, not a
	// wait on the exporter's side of a wire.
	LocalGet bool
	// CrossProcess: peers are separate processes, which may exit while
	// frames this side sent them are still on their way to their Recv.
	CrossProcess bool
}

// Membership is the peer-lifecycle control plane of a NIC: the layer above
// pushes death verdicts, revivals and address changes down, and the
// provider reports link-level death evidence up. It is part of the NIC
// contract, not an optional extension — a wrapper that dropped one of
// these calls would silently turn a death verdict into a full dial-window
// stall — so wrappers embed the inner NIC and override only what they
// compose with state of their own.
type Membership interface {
	// DeclareRankDown records the layer above's death verdict for rank:
	// sends and connection attempts toward it fail fast with ErrLinkDown
	// until ReviveRank.
	DeclareRankDown(rank int)
	// ReviveRank forgets all connection state toward rank so a respawned
	// process can be admitted under it.
	ReviveRank(rank int)
	// UpdateAddr repoints the provider at rank's new endpoint. Providers
	// without dialable addresses return an error.
	UpdateAddr(rank int, addr string) error
	// SetPeerDownHook installs the single callback for link-level
	// peer-death evidence: hard=true means the peer's process is
	// demonstrably gone, hard=false that an established link broke. The
	// callback runs on provider goroutines and must not block.
	SetPeerDownHook(fn func(rank int, hard bool))
}

// Config tunes fabric behaviour. The zero value is usable; NewConfig fills
// in defaults. A NIC reports it back through NIC.Config, and the transport
// worker and the fault wrapper take FragSize, Checksum, Epoch and Obs from
// there: each is set once, here.
type Config struct {
	// FragSize is the maximum wire fragment (MTU) in bytes, and the
	// transport's eager fragment payload size.
	FragSize int
	// Checksum enables CRC32C integrity protection. The transport carries
	// a CRC32C of every eager fragment in its header (a corrupt fragment
	// is dropped for retransmission under Reliable, or fails the receive
	// with ErrCorrupt); on byte-stream providers every Get response frame
	// carries one too, verified before the payload touches the sink (a
	// mismatch fails the Get with ErrCorrupt so the transport can retry).
	// In-process Gets move bytes memory-to-memory and are not checked.
	Checksum bool
	// Obs, when non-nil, is the observer every layer on this NIC reports
	// into: providers register their gauges under fabric.r<rank>.*, the
	// transport its counters, histograms and trace events under
	// ucp.r<rank>.* (and hb.r<rank>.* for its liveness detection), a fault
	// wrapper fault.r<rank>.*. Nil disables observability at zero cost — the
	// transport hot path pays one pointer check.
	Obs *obs.Observer

	// DialTimeout bounds connection establishment on byte-stream
	// providers: each lazy first dial and each redial campaign after a
	// connection breaks. Zero means 30s.
	DialTimeout time.Duration

	// Epoch is this process's incarnation number under its rank — the
	// launcher's restart counter (0 for an original world member).
	// Byte-stream providers announce it in the connection handshake, in
	// both directions; a hello or verdict carrying a HIGHER epoch than
	// previously recorded for that rank, from a rank this side had
	// already communicated with, is hard evidence that the rank's
	// previous incarnation died. Without it a fast respawn masks the
	// death: the replacement reconnects and answers probes under the same
	// rank before the silence threshold expires, and survivors hang
	// forever in collectives the dead incarnation will never finish.
	Epoch uint32
}

// registry is where providers register their gauges: Obs's registry, or
// nil when observability is off.
func (c Config) registry() *obs.Registry {
	if c.Obs == nil {
		return nil
	}
	return c.Obs.Registry
}

// DefaultFragSize matches a typical transport bounce-buffer size.
const DefaultFragSize = 16 * 1024

// MaxFragSize bounds a single wire fragment across all providers.
const MaxFragSize = 1 << 20

// inboxDepth is every provider's receive queue depth in packets.
const inboxDepth = 1024

// NewConfig returns cfg with zero fields replaced by defaults.
func NewConfig(cfg Config) Config {
	if cfg.FragSize <= 0 {
		cfg.FragSize = DefaultFragSize
	}
	if cfg.FragSize > MaxFragSize {
		cfg.FragSize = MaxFragSize
	}
	return cfg
}

// ErrClosed is returned by operations on a closed NIC.
var ErrClosed = errors.New("fabric: NIC closed")

// ErrBadKey is returned by Get when the remote key is unknown.
var ErrBadKey = errors.New("fabric: unknown memory key")

// ErrShortTransfer is returned when a Source or Sink ends before the
// requested byte count was moved.
var ErrShortTransfer = errors.New("fabric: short transfer")

// ErrLinkDown is returned when the path to a peer is (possibly
// transiently) unavailable: a TCP connection broke and has not been
// redialed yet, or a fault plan has taken the link down. Callers may
// retry after a backoff.
var ErrLinkDown = errors.New("fabric: link down")

// ErrCorrupt is returned when a checksum-protected transfer fails
// integrity verification. The payload was discarded before delivery, so
// retrying is safe.
var ErrCorrupt = errors.New("fabric: payload corrupted (checksum mismatch)")

// ErrRankDead is returned when an operation targets a rank that a fault
// plan has permanently killed (see the Kill action). Unlike ErrLinkDown
// it is not transient: the process is gone and retrying cannot succeed.
var ErrRankDead = errors.New("fabric: rank dead")

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// CRC32 computes the Castagnoli CRC32 the stack uses for payload
// integrity (fast on amd64/arm64 via the hardware instruction).
func CRC32(b []byte) uint32 { return crc32.Checksum(b, crcTab) }

func rangeErr(what string, rank, size int) error {
	return fmt.Errorf("fabric: %s rank %d out of range [0,%d)", what, rank, size)
}
