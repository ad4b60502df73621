// Package mpi is the public API of the mpicd-go reproduction — the
// analogue of the paper's mpicd-capi layer. It exposes a simplified
// MPI-style interface with the paper's custom datatype extension:
//
//	handler := myHandler{}                       // implements mpi.CustomHandler
//	dt := mpi.TypeCreateCustom(handler,          // MPI_Type_create_custom
//	    mpi.WithInOrder())                       // the paper's inorder flag
//	err := comm.Send(buf, 1, dt, dst, tag)       // one MPI message: packed
//	                                             // part + zero-copy regions
//
// Worlds can run in-process (mpi.Run spawns one goroutine per rank — the
// moral equivalent of mpirun for tests, examples and benchmarks) or span
// processes over TCP (ConnectTCP).
//
// Classic derived datatypes (the baseline the paper compares against) are
// available through the re-exported constructors (Contiguous, Vector,
// Struct, ...) and FromDDT.
package mpi

import (
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/launch"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// Count is the element/byte count type (MPI_Count).
type Count = core.Count

// Comm is a communicator; see the point-to-point (Send, Recv, Isend,
// Irecv, SendRecv, Probe, Mprobe, MRecv), collective (Barrier, Bcast,
// Reduce, Allreduce, Gather, Allgather, Scatter, Alltoall, Dup, Split)
// and nonblocking-collective (Ibarrier, Ibcast, Iallreduce, Iallgather)
// methods.
type Comm = core.Comm

// Datatype describes how buffers serialize: TypeBytes, FromDDT or
// TypeCreateCustom.
type Datatype = core.Datatype

// CustomHandler is the callback set behind TypeCreateCustom — the Go
// mirror of the paper's MPI_Type_create_custom callbacks (state, query,
// pack, unpack, region count, regions).
type CustomHandler = core.CustomHandler

// Status describes a completed receive (source, tag, byte count).
type Status = core.Status

// Request is a pending nonblocking operation.
type Request = core.Request

// Message is a matched message claimed by Mprobe.
type Message = core.Message

// Options configures an in-process world.
type Options = core.Options

// System is an in-process world of ranks.
type System = core.System

// Wildcards.
const (
	AnySource = core.AnySource
	AnyTag    = core.AnyTag
)

// MaxTag is the largest usable tag value.
const MaxTag = core.MaxTag

// ErrTruncated reports a receive buffer smaller than the incoming
// message.
var ErrTruncated = core.ErrTruncated

// Failure taxonomy, for classifying errors with errors.Is.
var (
	// ErrTimeout reports a request that exceeded its deadline
	// (Options.UCP.ReqTimeout or Request.WaitTimeout) or exhausted its
	// retransmission budget.
	ErrTimeout = core.ErrTimeout
	// ErrLinkDown reports a broken or deliberately downed fabric link.
	ErrLinkDown = core.ErrLinkDown
	// ErrCorrupt reports a payload that failed its checksum.
	ErrCorrupt = core.ErrCorrupt
	// ErrProcFailed reports an operation bound to a peer process that has
	// been declared dead (ULFM's MPI_ERR_PROC_FAILED). Enable detection
	// with Options.UCP.Heartbeat; recover with Comm.Revoke, Comm.Agree and
	// Comm.Shrink.
	ErrProcFailed = core.ErrProcFailed
	// ErrExcluded reports that the surviving group agreed the calling
	// rank into the failed set (a false-positive death verdict, e.g.
	// from an asymmetric link outage). The verdict is permanent; the
	// rank must stop or continue without the excluding peers — see
	// core.ErrExcluded.
	ErrExcluded = core.ErrExcluded
	// ErrRevoked reports an operation on a revoked communicator (ULFM's
	// MPI_ERR_REVOKED).
	ErrRevoked = core.ErrRevoked
)

// DetectorConfig tunes the transport worker's liveness detection, enabled
// through Options.UCP.Heartbeat (zero Period disables it). See
// Comm.Revoke/Agree/Shrink for the recovery flow it feeds.
type DetectorConfig = ucp.DetectorConfig

// KillSwitch is the shared death registry fault plans use to model whole
// process failure across an in-process world (fabric.FaultPlan.Kills).
type KillSwitch = fabric.KillSwitch

// NewKillSwitch builds an empty shared death registry.
func NewKillSwitch() *KillSwitch { return fabric.NewKillSwitch() }

// TypeBytes is the predefined byte datatype (MPI_BYTE): buffers are
// []byte, counts are byte counts, and a negative count means the whole
// slice.
var TypeBytes = core.TypeBytes

// TypeCreateCustom builds a datatype from an application serialization
// handler (the paper's proposed API).
func TypeCreateCustom(h CustomHandler, opts ...core.CustomOption) *Datatype {
	return core.TypeCreateCustom(h, opts...)
}

// WithInOrder requires in-order unpack delivery (set it when the receive
// region layout depends on unpacked metadata).
func WithInOrder() core.CustomOption { return core.WithInOrder() }

// WithName names a custom datatype for diagnostics.
func WithName(name string) core.CustomOption { return core.WithName(name) }

// Run executes fn once per rank over a fresh in-process world and returns
// the first rank error (the mpirun analogue).
func Run(n int, opt Options, fn func(c *Comm) error) error {
	return core.Run(n, opt, fn)
}

// NewSystem brings up an in-process world whose communicators are
// retrieved with System.Comm(rank). Close it when done.
func NewSystem(n int, opt Options) *System { return core.NewSystem(n, opt) }

// WaitAll waits on requests and returns the first error.
func WaitAll(reqs ...*Request) error { return core.WaitAll(reqs...) }

// WaitAny blocks until one request completes, returning its index and
// status (MPI_Waitany). Nil entries are ignored.
func WaitAny(reqs ...*Request) (int, Status, error) { return core.WaitAny(reqs...) }

// PersistentRequest is a reusable operation binding created with
// Comm.SendInit / Comm.RecvInit and launched with Start (MPI_Start).
type PersistentRequest = core.PersistentRequest

// PersistentColl is a reusable collective binding created with
// Comm.BarrierInit / Comm.BcastInit / Comm.AllreduceInit /
// Comm.AllgatherInit (MPI-4 MPI_Bcast_init and friends) and launched
// with Start (MPI_Start). The algorithm, datatype plan and schedule
// scratch are fixed at init, so steady-state iterations add zero
// allocations in the persistent layer; after a failure the handle is
// re-aimed at a shrunken communicator with Rebind and keeps iterating.
type PersistentColl = core.PersistentColl

// CartComm is a communicator with an attached Cartesian topology
// (Comm.CartCreate); see Coords, CartRank, Shift, NeighborSendRecv.
type CartComm = core.CartComm

// ProcNull is the null-neighbor rank at non-periodic topology boundaries.
const ProcNull = core.ProcNull

// StartAll starts a set of persistent requests (MPI_Startall).
func StartAll(ps ...*PersistentRequest) error { return core.StartAll(ps...) }

// WaitAllPersistent waits for every started persistent instance.
func WaitAllPersistent(ps ...*PersistentRequest) error { return core.WaitAllPersistent(ps...) }

// Pack serializes (buf, count, dt) into dst (MPI_Pack).
func Pack(buf any, count Count, dt *Datatype, dst []byte) (Count, error) {
	return core.Pack(buf, count, dt, dst)
}

// Unpack deserializes src into (buf, count, dt) (MPI_Unpack).
func Unpack(src []byte, buf any, count Count, dt *Datatype) error {
	return core.Unpack(src, buf, count, dt)
}

// PackedSize returns the packed size of (buf, count, dt) (MPI_Pack_size).
func PackedSize(buf any, count Count, dt *Datatype) (Count, error) {
	return core.PackedSize(buf, count, dt)
}

// ReduceOp is a reduction operator for Reduce/Allreduce: a Combine
// function plus a Commutative property. Non-commutative operators are
// combined strictly in rank order; commutative ones additionally qualify
// for the Rabenseifner large-message Allreduce schedule.
type ReduceOp = core.ReduceOp

// Reduction operators for Reduce/Allreduce.
var (
	OpSumFloat64 = core.OpSumFloat64
	OpSumInt64   = core.OpSumInt64
	OpMaxInt64   = core.OpMaxInt64
)

// CollRequest is a pending nonblocking collective started with Ibarrier,
// Ibcast, Iallreduce or Iallgather; complete it with Wait, WaitTimeout,
// Test or a select on Done().
type CollRequest = core.CollRequest

// CollTuning configures the collective engine's algorithm-selection
// thresholds (Comm.SetCollTuning); zero fields select the defaults.
type CollTuning = core.CollTuning

// Default collective-engine thresholds.
const (
	DefaultCollChunkBytes     = core.DefaultCollChunkBytes
	DefaultCollPipelineThresh = core.DefaultCollPipelineThresh
	DefaultCollRabenThresh    = core.DefaultCollRabenThresh
	DefaultCollWindow         = core.DefaultCollWindow
)

// Observer is the observability layer: a metrics registry of counters,
// gauges and power-of-two-bucket histograms plus an optional bounded
// per-message trace ring. Attach one with Options.Fabric.Obs (provider,
// transport and detector all report into it); dump it with
// Observer.WriteJSON. Nil disables observability — the transport hot
// path then pays a single pointer check.
type Observer = obs.Observer

// StatsSnapshot is a point-in-time copy of one rank's transport counters
// and queue depths, from Comm.Worker().StatsSnapshot(). It needs no
// Observer: protocol counters are always maintained.
type StatsSnapshot = ucp.StatsSnapshot

// NewObserver builds an Observer. traceCap > 0 additionally enables the
// lifecycle trace ring holding the last traceCap events (rounded up to a
// power of two); 0 records metrics only.
func NewObserver(traceCap int) *Observer { return obs.New(traceCap) }

// ProcWorld is a world communicator whose ranks are separate OS
// processes, connected over real sockets (ConnectTCP), shared memory
// (ConnectSHM), or whatever transport the launcher picked (InitFromEnv).
//
// Launcher-connected worlds (InitFromEnv) additionally expose the
// elasticity surface: Rejoined, Join and PollRejoins tie the ULFM
// recovery flow (Comm.Revoke / Agree / Shrink / Grow) to the launcher's
// supervision — survivors poll for supervised respawns and Grow them
// back in, replacements Join. Directly-connected worlds (ConnectTCP,
// ConnectSHM) have no launcher behind them; their elasticity calls fail
// with a descriptive error.
type ProcWorld struct {
	Comm  *Comm
	world *launch.World
}

// JoinPeer names one respawned process being re-admitted by Comm.Grow:
// its fabric rank and, for transports with dialable endpoints, its new
// address.
type JoinPeer = core.JoinPeer

// TCPWorld is the original, transport-specific name for ProcWorld.
type TCPWorld = ProcWorld

// ConnectTCP joins a TCP world: rank i of addrs listens at addrs[i];
// connections come up on first use. Options' fabric configuration applies
// (fragment sizes, thresholds), over the protocol defaults every
// cross-process world runs (acked eager sends where the link can lose a
// frame — TCP's can — an oversubscription-scaled retransmission budget).
func ConnectTCP(rank int, addrs []string, opt Options) (*ProcWorld, error) {
	nic, err := fabric.NewTCP(rank, addrs, opt.Fabric)
	if err != nil {
		return nil, err
	}
	return procWorld(launch.Attach(nic, opt)), nil
}

// ConnectSHM joins a shared-memory world rooted at dir, a directory on a
// local filesystem every rank of the job can reach. Segment and socket
// names inside dir are deterministic functions of the rank pair, so the
// only thing ranks must agree on out of band is dir itself (and keep it
// short — unix socket paths cap at ~100 bytes). SHM loses nothing between
// live processes, so eager sends are not acked; closing the world waits
// until every peer has taken in what this rank sent it.
func ConnectSHM(rank, size int, dir string, opt Options) (*ProcWorld, error) {
	nic, err := fabric.NewSHM(rank, size, dir, opt.Fabric)
	if err != nil {
		return nil, err
	}
	return procWorld(launch.Attach(nic, opt)), nil
}

// InitFromEnv joins the world a mpicd-run launcher described in this
// process's environment (the MPICD_* variables: rank, size, transport,
// rendezvous address, node placement). ok reports whether such a
// description was present at all — a process run directly, outside any
// launcher, gets (nil, false, nil) and should fall back to single-process
// behaviour. The launcher-reported placement is applied to the world
// communicator's collective tuning, so hierarchical schedules engage
// automatically under multi-node layouts.
//
// The environment can also tune cross-process failure detection without
// code changes: MPICD_HB_PERIOD (a Go duration, e.g. "20ms") enables
// liveness detection at that probe period, and MPICD_HB_SUSPECT /
// MPICD_HB_DEAD scale the suspicion and death thresholds as multiples
// of the period (defaults 8 and 30). Options.UCP.Heartbeat, when set,
// wins over the environment.
//
// A process whose MPICD_EPOCH is greater than zero is a supervised
// respawn of a dead rank: it has no Comm (the returned world's Comm is
// nil) and must re-enter through Join while the survivors Grow it back
// in — see ProcWorld.Rejoined.
func InitFromEnv(opt Options) (world *ProcWorld, ok bool, err error) {
	if !launch.IsWorker() {
		return nil, false, nil
	}
	in, err := launch.FromEnv()
	if err != nil {
		return nil, true, err
	}
	w, err := in.Connect(opt)
	if err != nil {
		return nil, true, err
	}
	return procWorld(w), true, nil
}

// Rejoined reports whether this process is a supervised respawn that
// must Join the surviving group instead of using a world communicator
// from startup (its Comm is nil until Join succeeds).
func (t *ProcWorld) Rejoined() bool {
	return t.world.Rejoined()
}

// Join runs the joiner side of elastic re-admission: wait, up to window,
// for the surviving group to Grow this rank back in, and return the new
// world communicator (also stored as t.Comm). Only meaningful when
// Rejoined reports true.
func (t *ProcWorld) Join(window time.Duration) (*Comm, error) {
	c, err := t.world.Join(window)
	if c != nil {
		t.Comm = c
	}
	return c, err
}

// PollRejoins asks the launcher's join service which respawned
// replacements have registered since join epoch `since` (0 means all).
// The returned peers feed Comm.Grow; the second result is the service's
// current epoch, the watermark for the next incremental poll.
func (t *ProcWorld) PollRejoins(since uint64) ([]JoinPeer, uint64, error) {
	return t.world.PollRejoins(since)
}

func procWorld(w *launch.World) *ProcWorld { return &ProcWorld{Comm: w.Comm, world: w} }

// Close leaves the world.
func (t *ProcWorld) Close() error { return t.world.Close() }
