// Package core is the point-to-point engine of the reproduction — the
// analogue of the paper's mpicd crate. It provides communicators, tagged
// blocking/nonblocking point-to-point operations, probe/mprobe, manual
// pack/unpack, a small set of collectives, and — centrally — the custom
// datatype engine implementing the paper's MPI_Type_create_custom API:
// application callbacks pack the non-contiguous portion of a buffer while
// contiguous memory regions ride the wire zero-copy, all within a single
// MPI-level message.
//
// Ranks can live in one process (inproc fabric; used by the tests,
// examples and benchmarks) or in separate processes over TCP (see
// cmd/mpicd-pingpong).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mpicd/internal/ddt"
	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// Wildcards (match MPI_ANY_SOURCE / MPI_ANY_TAG).
const (
	AnySource = -1
	AnyTag    = -1
)

// MaxTag is the largest user tag (tags occupy 31 bits of the matching
// word).
const MaxTag = 1<<31 - 1

// ErrTruncated re-exports the transport truncation error.
var ErrTruncated = ucp.ErrTruncated

// Error taxonomy re-exports, so applications can classify failures with
// errors.Is without importing the transport packages.
var (
	// ErrTimeout reports a request that exceeded its deadline or exhausted
	// its retransmission budget.
	ErrTimeout = ucp.ErrTimeout
	// ErrLinkDown reports a broken or injected-down fabric link.
	ErrLinkDown = ucp.ErrLinkDown
	// ErrCorrupt reports a payload that failed its checksum.
	ErrCorrupt = ucp.ErrCorrupt
)

// Options configures a System.
type Options struct {
	Fabric fabric.Config
	UCP    ucp.Config
	// WrapNIC, when set, wraps each rank's NIC before the transport worker
	// is built — the hook fault-injection harnesses use to interpose a
	// fabric.FaultNIC per rank.
	WrapNIC func(rank int, nic fabric.NIC) fabric.NIC
}

// System owns an in-process world: one fabric and one transport worker
// per rank. It is how tests, examples and benchmarks bring up N ranks
// inside a single process.
type System struct {
	fab     *fabric.Inproc
	workers []*ucp.Worker
	comms   []*Comm
	once    sync.Once
}

// NewSystem brings up n in-process ranks.
func NewSystem(n int, opt Options) *System {
	// One Observer (opt.Fabric.Obs) serves every layer of all ranks:
	// per-rank metric prefixes keep them apart. Datatype plan-cache gauges
	// (hits/misses/compile time) ride the same registry.
	if o := opt.Fabric.Obs; o != nil {
		ddt.RegisterObs(o.Registry)
	}
	s := &System{fab: fabric.NewInproc(n, opt.Fabric)}
	s.workers = make([]*ucp.Worker, n)
	s.comms = make([]*Comm, n)
	for i := 0; i < n; i++ {
		nic := fabric.NIC(s.fab.NIC(i))
		if opt.WrapNIC != nil {
			nic = opt.WrapNIC(i, nic)
		}
		s.workers[i] = ucp.NewWorker(nic, opt.UCP)
		s.comms[i] = newWorldComm(s.workers[i])
	}
	return s
}

// Comm returns rank's world communicator.
func (s *System) Comm(rank int) *Comm { return s.comms[rank] }

// Size returns the number of ranks.
func (s *System) Size() int { return len(s.workers) }

// Close tears the world down.
func (s *System) Close() {
	s.once.Do(func() {
		for _, w := range s.workers {
			w.Close()
		}
	})
}

// Run executes fn once per rank, each on its own goroutine, over a fresh
// in-process world, and returns the first error. It is the moral
// equivalent of mpirun -n for this reproduction.
func Run(n int, opt Options, fn func(c *Comm) error) error {
	s := NewSystem(n, opt)
	defer s.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(s.Comm(rank))
		}(i)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}

// Comm is a communicator: an ordered group of ranks with an isolated
// matching context.
type Comm struct {
	w       *ucp.Worker
	ctx     uint64
	group   []int       // comm rank -> fabric rank
	inverse map[int]int // fabric rank -> comm rank
	rank    int

	// nextCID is shared by all communicators of this rank and advanced by
	// collective agreement, so every rank derives the same context id for
	// the same Dup/Split call.
	nextCID *uint64

	// collEpoch numbers this communicator's collective calls. Every rank
	// enters collectives on a communicator in the same order (standard MPI
	// semantics), so the per-rank counters agree; the epoch rides in the
	// collective tag and keeps back-to-back and outstanding nonblocking
	// collectives from cross-matching. Shared (by pointer) between Comm
	// values only when they alias the same communicator.
	collEpoch *atomic.Uint64

	// tuning holds the collective-engine thresholds (zero fields mean
	// defaults; see CollTuning).
	tuning CollTuning

	// rv holds the ULFM recovery state — revocation flag, agreement
	// sequence, revoke-listener lifecycle (see ulfm.go). Set by initULFM
	// at construction for every communicator.
	rv *ulfmState
}

// worldCtx is the context id of the world communicator.
const worldCtx = 1

// newWorldComm wraps a transport worker into the world communicator.
func newWorldComm(w *ucp.Worker) *Comm {
	n := w.Size()
	group := make([]int, n)
	inverse := make(map[int]int, n)
	for i := range group {
		group[i] = i
		inverse[i] = i
	}
	next := uint64(worldCtx + 1)
	c := &Comm{
		w: w, ctx: worldCtx, group: group, inverse: inverse, rank: w.Rank(),
		nextCID: &next, collEpoch: new(atomic.Uint64),
	}
	c.initULFM()
	return c
}

// NewComm builds a world communicator over an externally created transport
// worker (e.g. one attached to a TCP fabric spanning processes).
func NewComm(w *ucp.Worker) *Comm { return newWorldComm(w) }

// Rank returns the calling rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Worker exposes the underlying transport worker.
func (c *Comm) Worker() *ucp.Worker { return c.w }

// Tag word layout: [context:16][source comm rank:16][coll:1][user tag:31].
//
// User tags occupy only 31 bits (MaxTag = 2^31-1), so bit 31 of the low
// word is never set by point-to-point traffic. It is reserved as the
// collective bit: every collective message carries it, and every user
// receive — including MPI_ANY_TAG wildcards — masks it out with a zero
// value. A user Send can therefore never match-steal collective traffic
// and vice versa, structurally, for any tag value (the analogue of Open
// MPI's negative collective tag space). See colltag.go for the layout of
// the remaining 31 bits of a collective tag (op, epoch, sequence).
const (
	ctxShift = 48
	srcShift = 32
	tagMask  = (uint64(1) << srcShift) - 1
	// collBit marks collective traffic within the low 32-bit tag field.
	collBit = uint64(1) << 31
)

func (c *Comm) sendTag(utag int) ucp.Tag {
	return ucp.Tag(c.ctx<<ctxShift | uint64(c.rank)<<srcShift | uint64(uint32(utag)))
}

// recvMatch translates (src, utag) with wildcards into transport matching
// criteria. The collective bit always participates in matching with a
// zero value, so user receives never observe collective traffic.
func (c *Comm) recvMatch(src, utag int) (from int, tag, mask ucp.Tag, err error) {
	mask = ucp.Tag(uint64(0xFFFF)<<ctxShift | collBit)
	tag = ucp.Tag(c.ctx << ctxShift)
	if src != AnySource {
		if src < 0 || src >= len(c.group) {
			return 0, 0, 0, fmt.Errorf("core: source rank %d out of range [0,%d)", src, len(c.group))
		}
		from = c.group[src]
		tag |= ucp.Tag(uint64(src) << srcShift)
		mask |= ucp.Tag(uint64(0xFFFF) << srcShift)
	} else {
		from = -1
	}
	if utag != AnyTag {
		if utag < 0 || utag > MaxTag {
			return 0, 0, 0, fmt.Errorf("core: tag %d out of range [0,%d]", utag, MaxTag)
		}
		tag |= ucp.Tag(uint64(uint32(utag)))
		mask |= ucp.Tag(tagMask)
	}
	return from, tag, mask, nil
}

// decodeTag splits a matched transport tag into (source comm rank, user tag).
func decodeTag(t ucp.Tag) (src int, utag int) {
	return int(uint64(t) >> srcShift & 0xFFFF), int(uint32(uint64(t) & tagMask))
}

// checkDst validates a destination rank.
func (c *Comm) checkDst(dst int) (int, error) {
	if dst < 0 || dst >= len(c.group) {
		return 0, fmt.Errorf("core: destination rank %d out of range [0,%d)", dst, len(c.group))
	}
	return c.group[dst], nil
}

// ErrInvalidComm reports collective misuse.
var ErrInvalidComm = errors.New("core: invalid communicator operation")
