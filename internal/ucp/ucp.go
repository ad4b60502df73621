// Package ucp implements a UCP-like transport layer: workers, endpoints,
// 64-bit tag matching with masks, and a datatype interface (Datatype →
// SendState/RecvState, a fabric Source or Sink with a Finish). It ships
// one datatype, contiguous buffers (UCP_DATATYPE_CONTIG). What the paper's
// prototype took from UCX as two more classes — region lists
// (UCP_DATATYPE_IOV) and callback-driven generic types
// (UCP_DATATYPE_GENERIC) — are properties a state may have instead: direct
// windows over some or all of its range, several regions, an ordered
// prefix. The layer above has one state type with all of them (core's
// binding); this package's tests keep test-local Iov and Generic datatypes
// to drive each property through the worker on its own.
//
// Two protocols move bytes, chosen per message:
//
//   - eager: the sender streams fragments through fabric wire buffers and
//     completes locally; unmatched fragments are buffered on the receiver
//     (the unexpected queue).
//   - rendezvous: the sender registers its Source and sends an RTS; the
//     matched receiver pulls the bytes with the fabric's Get (RDMA-read
//     analogue) and acknowledges with a FIN. This is the zero-copy path
//     region-based custom datatypes rely on.
//
// A rendezvous pull, a stripe of a large one and a self-send's local copy
// are jobs queued by source rank, each queue drained by at most
// Config.PullStripes pullers. A puller that runs out of work parks, up to
// PullStripes of them a worker, and the next job wakes it instead of
// starting a goroutine. A striped pull is a countdown in its Request, a
// retry a timer.
//
// The eager→rendezvous threshold is configurable and is the one switch
// every datatype takes: a message of several regions is charged a few
// bytes per region against it (regionCharge), because eager gathers and
// scatters a region list in two passes where the pull copies region to
// region in one.
package ucp

import (
	"errors"
	"runtime"
	"time"

	"mpicd/internal/fabric"
)

// Protocol kinds carried in fabric headers (all below fabric's reserved
// range, which is the providers' own; the rest are in worker.go).
const (
	kindEager fabric.Kind = 1 + iota // message fragment
	kindRTS                          // rendezvous request-to-send
	kindFIN                          // rendezvous completion ack
)

// Tag is the 64-bit transport matching tag. Layers above define its bit
// layout; matching uses masks.
type Tag uint64

// Proto selects the wire protocol for one send.
type Proto int

// Protocol selection hints.
const (
	// ProtoAuto picks rendezvous when the message's bytes, plus
	// regionCharge for each region past its first, exceed RndvThresh.
	ProtoAuto Proto = iota
	// ProtoEager forces the eager path.
	ProtoEager
	// ProtoRndv forces the rendezvous path.
	ProtoRndv
)

// Config tunes the transport. What the worker shares with the NIC below it
// — the fragment size, integrity checking, the incarnation that offsets its
// message ids and the observer — it reads from NIC.Config, not from here.
type Config struct {
	// RndvThresh is the eager→rendezvous switch in bytes (default 32 KiB,
	// the classic UCX value the paper observes a manual-pack dip at). A
	// source of several regions is charged regionCharge bytes for each
	// region past its first: below the switch its regions are gathered
	// into eager fragments, above it the pull path moves them zero-copy.
	RndvThresh int64
	// PullStripes is how many cores one peer's transfers may use: the
	// stripes a rendezvous pull of at least 256 KiB is split into (for an
	// inorder custom datatype, the part past its head, which is pulled
	// first and whole), and the cap on the pullers that run one source
	// rank's pulls and stripes (not over TCP: see NewWorker). Zero selects
	// min(GOMAXPROCS, 4); 1 disables striping.
	PullStripes int
	// RanksPerNode is how many ranks share this machine's CPUs, as
	// reported by the launcher for ranks it could not bind. It scales the
	// automatic PullStripes default: with R ranks competing for the node's
	// cores, each pull gets NumCPU/R stripes (clamped to [1,4]) instead of
	// the in-process GOMAXPROCS rule — 128 co-located ranks must not each
	// run 4 pullers. Zero keeps the GOMAXPROCS rule, which is also the
	// right one for a rank started on CPUs of its own: its NumCPU is
	// already its share.
	RanksPerNode int

	// Reliable enables the loss-tolerant protocol: eager messages are
	// retained on the sender and retransmitted until acknowledged,
	// rendezvous RTS control messages are retransmitted until the FIN
	// arrives, and the receiver suppresses the resulting duplicates so
	// every message is delivered exactly once. Off by default: the
	// in-process fabric never loses packets, so plain runs pay nothing.
	Reliable bool
	// ReqTimeout bounds how long a posted receive may wait unmatched and
	// how long a matched eager receive may wait for its remaining
	// fragments before failing with ErrTimeout. Zero disables deadlines.
	ReqTimeout time.Duration
	// RexmitBase and RexmitMax bound the exponential backoff between
	// retransmissions of unacknowledged messages (defaults 3ms / 200ms).
	RexmitBase time.Duration
	RexmitMax  time.Duration
	// RexmitRetries is how many retransmission rounds are attempted
	// before the send fails with ErrTimeout (default 12).
	RexmitRetries int

	// Heartbeat enables liveness detection (see liveness.go): every inbound
	// packet refreshes its sender's last-seen stamp, quiet peers are pinged
	// each period, and a peer silent past the dead threshold is declared
	// failed — its in-flight operations complete with ErrProcFailed and
	// blocked receives/probes matched to it wake, with no per-request
	// deadline required. Zero Period (the default) disables detection.
	Heartbeat DetectorConfig
}

// DefaultRndvThresh is the default eager→rendezvous threshold (32 KiB).
const DefaultRndvThresh = 32 * 1024

// regionCharge is the bytes each region past a source's first adds to its
// size when ProtoAuto weighs it against RndvThresh. An eager region list is
// walked twice — gathered into fragments, scattered out of them — and a
// pulled one once, so many small regions reach rendezvous before their
// bytes do. It is where forced eager and forced rendezvous cost the same
// in process (BenchmarkProtoCrossover).
const regionCharge = 16

// pullStripeThresh is the minimum size of a striped rendezvous pull, or of
// the part past its ordered prefix. Smaller pulls always run as a single
// sequential Get.
const pullStripeThresh = 256 * 1024

// msgIDEpochShift places a worker's message ids above every id an earlier
// incarnation of its rank (fabric.Config.Epoch) could have used: receivers
// deduplicate reliable messages by (rank, msg id), and a respawned process
// counting from zero would collide with the dead incarnation's ids still
// held in their dedup windows.
const msgIDEpochShift = 40

// getRetries is how many times a failed rendezvous Get (link down,
// corrupt frame) is retried with backoff before the pull degrades or
// fails. A Get starting inside the sink's ordered prefix (an inorder
// type's head) never retries: its contract forbids rewinding.
const getRetries = 3

// abortLinger is how long an errored unmatched message is kept for a
// late receive to observe before it is reaped (in every configuration).
const abortLinger = 2 * time.Second

// maxDefaultPullStripes caps the automatic stripe count: past a few
// stripes a pull is memory-bandwidth-bound, not core-bound.
const maxDefaultPullStripes = 4

// DefaultPullStripes returns the automatic stripe count:
// min(GOMAXPROCS, 4).
func DefaultPullStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxDefaultPullStripes {
		n = maxDefaultPullStripes
	}
	if n < 1 {
		n = 1
	}
	return n
}

// DefaultPullStripesFor returns the automatic stripe count when
// ranksPerNode ranks share the machine's CPUs: NumCPU/ranksPerNode clamped
// to [1, 4]. Non-positive ranksPerNode (placement unknown, or a rank bound
// to CPUs of its own) falls back to DefaultPullStripes.
func DefaultPullStripesFor(ranksPerNode int) int {
	if ranksPerNode <= 0 {
		return DefaultPullStripes()
	}
	n := runtime.NumCPU() / ranksPerNode
	if n > maxDefaultPullStripes {
		n = maxDefaultPullStripes
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) withDefaults() Config {
	if c.RndvThresh <= 0 {
		c.RndvThresh = DefaultRndvThresh
	}
	if c.PullStripes == 0 {
		c.PullStripes = DefaultPullStripesFor(c.RanksPerNode)
	}
	if c.PullStripes < 1 {
		c.PullStripes = 1
	}
	if c.RexmitBase <= 0 {
		c.RexmitBase = 3 * time.Millisecond
	}
	if c.RexmitMax <= 0 {
		c.RexmitMax = 200 * time.Millisecond
	}
	if c.RexmitRetries <= 0 {
		c.RexmitRetries = 12
	}
	c.Heartbeat = c.Heartbeat.withDefaults()
	return c
}

// ErrWorkerClosed is returned by operations on a closed worker.
var ErrWorkerClosed = errors.New("ucp: worker closed")

// ErrTruncated is returned when an incoming message is larger than the
// posted receive buffer.
var ErrTruncated = errors.New("ucp: message truncated (receive buffer too small)")

// ErrTimeout is returned when a request exceeds its deadline: a posted
// receive that never matched within Config.ReqTimeout, a matched receive
// whose remaining fragments never arrived, a send whose retransmission
// budget ran out, or a Request.WaitTimeout that expired.
var ErrTimeout = errors.New("ucp: request timed out")

// ErrProcFailed is returned when the peer process of an operation has
// been declared dead — by liveness detection, by a fabric error that
// only a dead process can produce, or by the layer above
// (DeclarePeerFailed). Unlike ErrTimeout it is a verdict about the peer,
// not the operation: every past and future operation on the dead rank
// fails with it, immediately.
var ErrProcFailed = errors.New("ucp: peer process failed")

// ErrLinkDown re-exports the fabric-level link failure so transport users
// can test for it without importing fabric.
var ErrLinkDown = fabric.ErrLinkDown

// ErrCorrupt re-exports the fabric-level integrity failure.
var ErrCorrupt = fabric.ErrCorrupt
