// Package launch is the process-launch half of cross-process deployment:
// an mpirun-style spawner (Cmd) that forks N local worker processes, and
// the worker-side bootstrap (FromEnv + Info.Connect) that turns the
// launcher-provided environment into a connected world communicator.
//
// The contract between the two halves is a handful of MPICD_* environment
// variables plus a JSON-line rendezvous service: each worker binds its
// transport endpoint, reports {rank, addr, node} to the rendezvous
// address, and receives the full address table and node placement once
// every rank has checked in. The rendezvous doubles as a startup barrier,
// so no worker sends before every peer is reachable.
//
// Placement is threaded through the stack: a job that fits the launcher's
// CPUs starts each rank on a CPU slice of its own (bind.go), whose Go
// runtime then sizes GOMAXPROCS and the transport's automatic pull-stripe
// count to that slice; an unbound job's RanksPerNode scales the stripe
// count instead (128 co-located ranks must not each spawn 4 pull
// goroutines). The per-rank node ids become the communicator's
// CollTopology so small collectives route hierarchically.
package launch

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// Environment variables the launcher sets for every worker process.
const (
	EnvRank      = "MPICD_RANK"      // this process's world rank
	EnvSize      = "MPICD_SIZE"      // world size
	EnvRend      = "MPICD_REND"      // rendezvous host:port (may be empty for SHM)
	EnvTransport = "MPICD_TRANSPORT" // "shm" or "tcp"
	EnvDir       = "MPICD_DIR"       // SHM session directory
	EnvRPN       = "MPICD_RPN"       // ranks per node
	EnvNode      = "MPICD_NODE"      // this rank's node id
	EnvEpoch     = "MPICD_EPOCH"     // incarnation; > 0 marks a respawned replacement
	EnvBound     = "MPICD_BOUND"     // 1: started on a CPU slice of its own (see bind.go)
)

// Heartbeat detector overrides, honored by Info.Connect (and therefore
// by mpi.InitFromEnv): the period is a Go duration, the suspect and dead
// thresholds are multipliers of the period. Setting only the period
// keeps the default multipliers, so launched tests can tighten
// failure-detection latency with a single variable and no code changes.
const (
	EnvHBPeriod  = "MPICD_HB_PERIOD"  // probe period, e.g. "20ms"; enables the detector
	EnvHBSuspect = "MPICD_HB_SUSPECT" // SuspectAfter = multiplier x period (default 8)
	EnvHBDead    = "MPICD_HB_DEAD"    // DeadAfter = multiplier x period (default 30)
)

// Transport names accepted by the launcher and Info.Transport.
const (
	TransportSHM = "shm"
	TransportTCP = "tcp"
)

// Info is the launch-time identity of one worker process.
type Info struct {
	Rank         int
	Size         int
	Rend         string // rendezvous address; empty skips the exchange (SHM only)
	Transport    string // TransportSHM (default) or TransportTCP
	Dir          string // SHM session directory
	RanksPerNode int    // 0 means unknown (single node assumed)
	Node         int    // node id of this rank
	Bind         string // TCP bind pattern; default "127.0.0.1:0"

	// Bound reports that the launcher started this process on CPUs of its
	// own, so runtime.NumCPU is already the rank's share of the host.
	Bound bool

	// Epoch is this process's incarnation under its rank: 0 for an
	// original worker, n for the n-th supervised respawn. A non-zero
	// epoch switches Connect from the startup barrier to the rejoin
	// exchange and offsets the reliable-protocol message-id space so the
	// replacement's traffic cannot collide with its predecessor's dedup
	// records on surviving peers.
	Epoch int
}

// IsWorker reports whether this process was spawned by the launcher.
func IsWorker() bool { return os.Getenv(EnvRank) != "" }

// FromEnv reads the worker identity the launcher exported.
func FromEnv() (*Info, error) {
	in := &Info{
		Rend:      os.Getenv(EnvRend),
		Transport: os.Getenv(EnvTransport),
		Dir:       os.Getenv(EnvDir),
	}
	var err error
	if in.Rank, err = envInt(EnvRank, -1); err != nil {
		return nil, err
	}
	if in.Size, err = envInt(EnvSize, -1); err != nil {
		return nil, err
	}
	if in.RanksPerNode, err = envInt(EnvRPN, 0); err != nil {
		return nil, err
	}
	if in.Node, err = envInt(EnvNode, 0); err != nil {
		return nil, err
	}
	if in.Epoch, err = envInt(EnvEpoch, 0); err != nil {
		return nil, err
	}
	if in.Epoch < 0 {
		return nil, fmt.Errorf("launch: %s=%d: incarnation cannot be negative", EnvEpoch, in.Epoch)
	}
	bound, err := envInt(EnvBound, 0)
	if err != nil {
		return nil, err
	}
	in.Bound = bound == 1
	if in.Rank < 0 || in.Size <= 0 || in.Rank >= in.Size {
		return nil, fmt.Errorf("launch: bad identity rank=%d size=%d (is %s set?)", in.Rank, in.Size, EnvRank)
	}
	if in.Transport == "" {
		in.Transport = TransportSHM
	}
	return in, nil
}

func envInt(name string, def int) (int, error) {
	v := os.Getenv(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("launch: %s=%q: %w", name, v, err)
	}
	return n, nil
}

// HeartbeatFromEnv reads the MPICD_HB_* failure-detector overrides.
// ok reports whether any of them is set; when it is, the returned config
// is fully validated and ready for ucp.Config.Heartbeat. Every
// validation failure names the offending variable.
func HeartbeatFromEnv() (cfg ucp.DetectorConfig, ok bool, err error) {
	pv, sv, dv := os.Getenv(EnvHBPeriod), os.Getenv(EnvHBSuspect), os.Getenv(EnvHBDead)
	if pv == "" && sv == "" && dv == "" {
		return ucp.DetectorConfig{}, false, nil
	}
	if pv == "" {
		return cfg, false, fmt.Errorf("launch: %s/%s need %s to be set", EnvHBSuspect, EnvHBDead, EnvHBPeriod)
	}
	period, err := time.ParseDuration(pv)
	if err != nil {
		return cfg, false, fmt.Errorf("launch: %s=%q: %w", EnvHBPeriod, pv, err)
	}
	if period <= 0 {
		return cfg, false, fmt.Errorf("launch: %s=%q: period must be positive", EnvHBPeriod, pv)
	}
	mul := func(name, v string, def float64) (float64, error) {
		if v == "" {
			return def, nil
		}
		m, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("launch: %s=%q: %w", name, v, err)
		}
		if m < 1 {
			return 0, fmt.Errorf("launch: %s=%q: multiplier must be >= 1", name, v)
		}
		return m, nil
	}
	suspect, err := mul(EnvHBSuspect, sv, 8)
	if err != nil {
		return cfg, false, err
	}
	dead, err := mul(EnvHBDead, dv, 30)
	if err != nil {
		return cfg, false, err
	}
	if dead <= suspect {
		return cfg, false, fmt.Errorf("launch: %s (%g) must exceed %s (%g)", EnvHBDead, dead, EnvHBSuspect, suspect)
	}
	cfg = ucp.DetectorConfig{
		Period:       period,
		SuspectAfter: time.Duration(suspect * float64(period)),
		DeadAfter:    time.Duration(dead * float64(period)),
	}
	return cfg, true, nil
}

// World is a connected cross-process world communicator plus the
// bootstrap facts (address table, node placement) the rendezvous
// produced. For a respawned replacement (Rejoined() true) Comm is nil —
// the dead incarnation's communicators died with it, and the only way
// back in is Join, which runs the joiner side of the Grow protocol.
type World struct {
	Comm  *core.Comm
	Info  *Info
	Addrs []string // addrs[i] is rank i's bound transport endpoint
	Nodes []int    // nodes[i] is rank i's node id

	worker *ucp.Worker
	nic    fabric.NIC
}

// Rejoined reports whether this process is a supervised respawn that
// registered through the join service rather than the startup barrier.
func (w *World) Rejoined() bool { return w.Info.Epoch > 0 }

// Worker exposes the transport worker, which elastic recovery needs for
// failure declarations outside any communicator.
func (w *World) Worker() *ucp.Worker { return w.worker }

// Join runs the joiner side of elastic re-admission: wait (up to window)
// for a surviving group to Grow this rank back in, and return the new
// world communicator. Only meaningful after Rejoined().
func (w *World) Join(window time.Duration) (*core.Comm, error) {
	if !w.Rejoined() {
		return nil, fmt.Errorf("launch: Join is for respawned workers (epoch %d)", w.Info.Epoch)
	}
	tuning := core.CollTuning{Topology: &core.CollTopology{NodeOf: w.Nodes}}
	return core.JoinWorldWithin(w.worker, tuning, window)
}

// PollRejoins asks the launcher's join service which replacements have
// registered since join epoch `since` (0 means all). The returned peers
// are ready for Comm.Grow: for transports whose endpoints are derived
// from the rank (SHM), the address is blanked, because the fabric needs
// no repointing. The second result is the service's current epoch — the
// watermark for the next incremental poll.
func (w *World) PollRejoins(since uint64) ([]core.JoinPeer, uint64, error) {
	if w.Info.Rend == "" {
		return nil, 0, fmt.Errorf("launch: no rendezvous service to poll (%s unset)", EnvRend)
	}
	reply, err := pollRejoins(w.Info.Rend, w.Info.Rank, since)
	if err != nil {
		return nil, 0, err
	}
	peers := make([]core.JoinPeer, 0, len(reply.Rejoins))
	for _, rec := range reply.Rejoins {
		p := core.JoinPeer{Rank: rec.Rank, Addr: rec.Addr}
		if w.Info.Transport != TransportTCP {
			p.Addr = ""
		}
		peers = append(peers, p)
	}
	return peers, reply.Epoch, nil
}

// NumConns reports how many transport connections this rank currently
// holds, when the provider tracks that (TCP and SHM do). Lazy dialing
// means a rank that only ever talked to k peers reports ~k, not Size-1.
func (w *World) NumConns() int {
	if n, ok := w.nic.(interface{ NumConns() int }); ok {
		return n.NumConns()
	}
	return -1
}

// Close leaves the world, closing the transport.
func (w *World) Close() error {
	w.worker.Close()
	return nil
}

// crossProcessDefaults returns cfg with the protocol settings every
// world of separate OS processes runs, launched (Connect) or directly
// connected (Attach), over a provider whose link is link, for a rank that
// shares each of its CPUs with over ranks.
func crossProcessDefaults(cfg ucp.Config, link fabric.Link, over int) ucp.Config {
	// Acks where the link can lose a frame, and only there. Over TCP a
	// broken connection is redialed, and a peer that closes with unread
	// inbound bytes resets the connection, discarding kernel-buffered data
	// in both directions; there a completed send must be one the receiver's
	// worker acked. SHM loses nothing between live processes, and a rank
	// that exits right after its last send is covered by the worker's drain
	// at Close (every peer's loop has taken in every frame before it
	// returns), so SHM worlds run unacked eager. A caller's Reliable stays on.
	if !link.Lossless {
		cfg.Reliable = true
	}
	// Multi-process jobs oversubscribe cores hard — every rank is a full
	// OS process, and CI-class machines run 128 of them on a few CPUs —
	// so a receiver can legitimately sit unscheduled for whole seconds.
	// Unless the caller tuned them, give retransmission a far longer
	// budget than the in-process defaults, scaled by how oversubscribed
	// this job actually is, so scheduler starvation is not misread as
	// message loss.
	if cfg.RexmitMax == 0 {
		cfg.RexmitMax = time.Second
		if over >= 8 {
			cfg.RexmitMax = 2 * time.Second
		}
	}
	if cfg.RexmitRetries == 0 {
		cfg.RexmitRetries = 20
		if over >= 8 {
			cfg.RexmitRetries = 45
		}
	}
	return cfg
}

// oversubscription is how many ranks of a size-rank world share each CPU
// when they all run on this process's CPUs.
func oversubscription(size int) int {
	return (size + runtime.NumCPU() - 1) / runtime.NumCPU()
}

// Attach builds a world on a provider the caller bound and joined itself
// — the launcher-less path behind mpi.ConnectTCP / ConnectSHM — with the
// same protocol defaults Connect applies. No rendezvous service stands
// behind such a world, so its Join and PollRejoins fail.
func Attach(nic fabric.NIC, opt core.Options) *World {
	w := ucp.NewWorker(nic, crossProcessDefaults(opt.UCP, nic.Link(), oversubscription(nic.Size())))
	return &World{
		Comm:   core.NewComm(w),
		Info:   &Info{Rank: nic.Rank(), Size: nic.Size()},
		worker: w,
		nic:    nic,
	}
}

// Connect binds this worker's transport endpoint, runs the rendezvous
// exchange, and returns the world communicator. opt carries the usual
// fabric/ucp configuration.
func (in *Info) Connect(opt core.Options) (*World, error) {
	// A bound rank's NumCPU and GOMAXPROCS are already its share of the
	// host: it neither divides the CPUs by its node's ranks again for the
	// stripe default nor counts itself oversubscribed.
	over := 1
	if !in.Bound {
		over = oversubscription(in.Size)
		if opt.UCP.RanksPerNode == 0 {
			opt.UCP.RanksPerNode = in.RanksPerNode
		}
	}
	// Environment overrides win over programmatic heartbeat config, so a
	// launched test can tighten failure detection without code changes.
	if hb, ok, err := HeartbeatFromEnv(); err != nil {
		return nil, err
	} else if ok {
		opt.UCP.Heartbeat = hb
	}
	// The fabric announces the incarnation in every connection handshake:
	// a replacement that reconnects to survivors before their silence
	// threshold expires would otherwise mask its predecessor's death with
	// its own heartbeats, and the survivors would hang forever in the
	// dead incarnation's last collective. The worker offsets its
	// message-id space by it, so a replacement's first reliable sends do
	// not collide with the dead predecessor's dedup records on peers that
	// have not purged them yet.
	opt.Fabric.Epoch = uint32(in.Epoch)
	// A replacement boots into a world that will not talk to it until a
	// survivor notices its join request and issues an invite. Counting
	// that pre-invite silence against the survivors would declare them
	// all dead within DeadAfter of boot — a sticky verdict that mutes the
	// joiner exactly when the invite arrives, deadlocking re-admission.
	// Give respawned workers a boot grace that comfortably covers the
	// notice-and-invite path; first contact per peer resumes normal
	// accounting.
	if in.Epoch > 0 && opt.UCP.Heartbeat.Period > 0 && opt.UCP.Heartbeat.BootGrace == 0 {
		opt.UCP.Heartbeat.BootGrace = 10 * time.Second
	}

	var (
		nic  fabric.NIC
		tcp  *fabric.TCP
		addr string
		err  error
	)
	switch in.Transport {
	case TransportSHM, "":
		if in.Dir == "" {
			return nil, fmt.Errorf("launch: SHM transport needs %s", EnvDir)
		}
		// Deterministic addressing: every segment and socket name is a
		// function of the session dir and the rank pair, so the address
		// table is known before the exchange.
		nic, err = fabric.NewSHM(in.Rank, in.Size, in.Dir, opt.Fabric)
		if err != nil {
			return nil, err
		}
		addr = fabric.ShmSocket(in.Dir, in.Rank)
	case TransportTCP:
		bind := in.Bind
		if bind == "" {
			bind = "127.0.0.1:0"
		}
		tcp, err = fabric.ListenTCP(in.Rank, in.Size, bind, opt.Fabric)
		if err != nil {
			return nil, err
		}
		nic, addr = tcp, tcp.Addr()
	default:
		return nil, fmt.Errorf("launch: unknown transport %q", in.Transport)
	}

	addrs, nodes := make([]string, in.Size), make([]int, in.Size)
	if in.Rend != "" {
		var reply *worldMsg
		if in.Epoch > 0 {
			reply, err = rejoinExchange(in.Rend, in.Rank, in.Size, addr, in.Node)
		} else {
			reply, err = exchange(in.Rend, in.Rank, in.Size, addr, in.Node)
		}
		if err != nil {
			nic.Close()
			return nil, err
		}
		addrs, nodes = reply.Addrs, reply.Nodes
	} else {
		// No rendezvous: only SHM can bootstrap from convention alone
		// (all ranks on one node, addresses derived from the dir).
		if in.Transport == TransportTCP {
			nic.Close()
			return nil, fmt.Errorf("launch: TCP transport needs %s", EnvRend)
		}
		for i := range addrs {
			addrs[i] = fabric.ShmSocket(in.Dir, i)
		}
	}
	if tcp != nil {
		if err := tcp.Join(addrs); err != nil {
			nic.Close()
			return nil, err
		}
	}

	w := ucp.NewWorker(nic, crossProcessDefaults(opt.UCP, nic.Link(), over))
	world := &World{Info: in, Addrs: addrs, Nodes: nodes, worker: w, nic: nic}
	if in.Epoch == 0 {
		// A replacement has no world communicator — the one its dead
		// predecessor belonged to is gone; Join builds its successor.
		comm := core.NewComm(w)
		comm.SetCollTuning(core.CollTuning{Topology: &core.CollTopology{NodeOf: nodes}})
		world.Comm = comm
	}
	return world, nil
}
