package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpicd/internal/obs"
)

// This file implements the heartbeat/liveness service: a NIC wrapper
// that tracks per-peer last-seen times (piggybacked on every inbound
// packet, so a busy link never pays an explicit probe) and sends
// ping/pong probes to quiet peers. A peer silent past SuspectAfter is
// suspected; past DeadAfter it is declared dead, permanently, and the
// OnDead callback fires — the transport layer above turns that into
// failure notification for blocked operations.

// DetectorConfig tunes the liveness detector. The zero value disables
// it (Period == 0); NewDetectorConfig fills defaults for enabled ones.
type DetectorConfig struct {
	// Period is the probe cadence: a peer not heard from within one
	// period is pinged every tick. Zero disables the detector.
	Period time.Duration
	// SuspectAfter is the silence after which a peer is suspected
	// (default 4×Period).
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a peer is declared dead
	// (default 10×Period). Death is sticky: a late packet from a
	// declared-dead peer is still delivered but cannot resurrect it —
	// only an explicit Revive (elastic re-admission of a respawned
	// process) returns the rank to the alive state.
	DeadAfter time.Duration
	// BootGrace, when positive, pushes every peer's initial last-seen
	// stamp that far into the future: silence at boot does not count
	// against peers until the grace expires or they send their first
	// packet (which resumes normal accounting). Static worlds want the
	// default (zero) — a peer that never starts must still be declared
	// dead from boot silence. A respawned elastic joiner wants a generous
	// grace: the survivors it must rejoin will not talk to it until its
	// join request is noticed and an invite issued, and boot-silence
	// verdicts before that point put the joiner and the survivors in a
	// mutual-death deadlock (the joiner declares everyone dead and goes
	// mute; the survivors' re-admission grace then expires waiting for a
	// peer that will never speak first).
	BootGrace time.Duration
}

// NewDetectorConfig returns cfg with zero thresholds defaulted.
func NewDetectorConfig(cfg DetectorConfig) DetectorConfig {
	if cfg.Period <= 0 {
		return cfg
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 4 * cfg.Period
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 10 * cfg.Period
	}
	if cfg.DeadAfter < cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter
	}
	return cfg
}

// Peer liveness states.
const (
	peerAlive int32 = iota
	peerSuspect
	peerDead
)

// Detector wraps a NIC with the heartbeat service. It embeds the inner
// NIC and overrides only what it changes: Recv consumes heartbeat packets
// (answering pings, timing pongs) and refreshes the sender's last-seen
// stamp with one atomic store — no allocation, no lock — so detection
// costs the data path almost nothing; ReviveRank composes detector-state
// revival with the provider's; Close stops the prober first.
type Detector struct {
	NIC
	cfg DetectorConfig

	lastSeen []atomic.Int64 // per-peer last inbound activity, ns (coarse)
	state    []atomic.Int32 // peerAlive / peerSuspect / peerDead
	probing  []atomic.Bool  // per-peer probe send in flight

	// coarse is a Period-granularity clock refreshed by the prober tick.
	// The data path stamps lastSeen from it instead of calling time.Now
	// per packet — a liveness stamp may therefore read up to one Period
	// old, which the SuspectAfter/DeadAfter thresholds (multiples of
	// Period) absorb. Probe RTTs still use the real clock; pongs are rare.
	coarse atomic.Int64

	nSuspect atomic.Int64
	nDead    atomic.Int64
	rtt      *obs.Histogram // nil when Obs is nil

	onDead func(rank int) // set before Start

	startOnce sync.Once
	closeOnce sync.Once
	quit      chan struct{}
	wg        sync.WaitGroup
}

// NewDetector wraps nic with a detector. cfg.Period must be > 0. The
// detector is passive until Start is called; set the OnDead callback
// first. When the NIC's Config carries an observer, the detector reports
// hb.r<rank>.peers_suspected and hb.r<rank>.peers_dead gauges plus an
// hb.r<rank>.rtt_ns histogram of probe round-trip times into it.
func NewDetector(nic NIC, cfg DetectorConfig) *Detector {
	cfg = NewDetectorConfig(cfg)
	if cfg.Period <= 0 {
		panic("fabric: NewDetector requires Period > 0")
	}
	d := &Detector{
		NIC:      nic,
		cfg:      cfg,
		lastSeen: make([]atomic.Int64, nic.Size()),
		state:    make([]atomic.Int32, nic.Size()),
		probing:  make([]atomic.Bool, nic.Size()),
		quit:     make(chan struct{}),
	}
	now := time.Now().UnixNano()
	d.coarse.Store(now)
	boot := now + cfg.BootGrace.Nanoseconds()
	for i := range d.lastSeen {
		d.lastSeen[i].Store(boot)
	}
	if reg := nic.Config().registry(); reg != nil {
		p := func(name string) string { return fmt.Sprintf("hb.r%d.%s", nic.Rank(), name) }
		reg.GaugeFunc(p("peers_suspected"), d.nSuspect.Load)
		reg.GaugeFunc(p("peers_dead"), d.nDead.Load)
		d.rtt = reg.Histogram(p("rtt_ns"))
	}
	return d
}

// OnDead registers the death callback, invoked exactly once per peer
// from the prober goroutine when the peer crosses DeadAfter. It must be
// set before Start and must not block for long.
func (d *Detector) OnDead(fn func(rank int)) { d.onDead = fn }

// Start launches the prober goroutine. Idempotent. The inner NIC's
// link-level peer-death evidence (byte-stream providers in launched
// worlds report it) is wired into the state machine here — after OnDead
// is set, so a hard verdict arriving immediately still reaches the
// callback: a broken established link raises suspicion, a refused
// redial to a previously-connected peer declares death outright. This is
// what keeps cross-process detection from waiting out the full silence
// thresholds (or a sender's whole retransmit budget) when the peer's
// process is demonstrably gone.
func (d *Detector) Start() {
	d.startOnce.Do(func() {
		d.NIC.SetPeerDownHook(func(rank int, hard bool) {
			if hard {
				d.DeclareDead(rank)
			} else {
				d.Suspect(rank)
			}
		})
		d.wg.Add(1)
		go d.probeLoop()
	})
}

// Suspect raises suspicion on rank as if its silence had crossed
// SuspectAfter (used for link-level hints: an established connection
// breaking). It does not touch the last-seen stamp — escalation to dead
// still requires real silence, and any inbound packet clears the
// suspicion. No effect on a dead peer.
func (d *Detector) Suspect(rank int) {
	if rank < 0 || rank >= len(d.state) || rank == d.NIC.Rank() {
		return
	}
	if d.state[rank].CompareAndSwap(peerAlive, peerSuspect) {
		d.nSuspect.Add(1)
	}
}

// Revive returns rank to the alive state, lifting the permanent-death
// rule for elastic re-admission: the caller asserts a fresh process is
// being (re)started under this rank. The last-seen stamp is pushed into
// the future by a boot grace so the replacement is not re-declared dead
// while it is still starting up; the first packet it sends resumes
// normal accounting. After Revive the OnDead callback can fire again for
// this rank.
func (d *Detector) Revive(rank int) {
	if rank < 0 || rank >= len(d.state) || rank == d.NIC.Rank() {
		return
	}
	grace := 2 * d.cfg.DeadAfter
	if grace < 2*time.Second {
		grace = 2 * time.Second
	}
	d.lastSeen[rank].Store(time.Now().Add(grace).UnixNano())
	for {
		s := d.state[rank].Load()
		if s == peerAlive {
			return
		}
		if d.state[rank].CompareAndSwap(s, peerAlive) {
			switch s {
			case peerSuspect:
				d.nSuspect.Add(-1)
			case peerDead:
				d.nDead.Add(-1)
			}
			return
		}
	}
}

// ReviveRank composes detector-state revival with the inner provider's
// connection-state revival, so transport layers holding the detector as
// their NIC reset both with one call.
func (d *Detector) ReviveRank(rank int) {
	d.Revive(rank)
	d.NIC.ReviveRank(rank)
}

// DeadAfter reports the configured silence threshold after which a peer
// is declared dead — the upper bound on how long a death verdict can
// lag the failure. Layers that see a low-level link error and want the
// detector's verdict instead (ULFM error classification) wait at most
// this long plus slack.
func (d *Detector) DeadAfter() time.Duration { return d.cfg.DeadAfter }

// PeerDead reports whether the detector has declared rank dead.
func (d *Detector) PeerDead(rank int) bool {
	return rank >= 0 && rank < len(d.state) && d.state[rank].Load() == peerDead
}

// PeerSuspected reports whether rank is currently suspected.
func (d *Detector) PeerSuspected(rank int) bool {
	return rank >= 0 && rank < len(d.state) && d.state[rank].Load() == peerSuspect
}

// DeclareDead force-declares rank dead, as if its silence had crossed
// DeadAfter. Used when a lower layer learns of the death directly (e.g.
// a Get returning ErrRankDead) so the callback machinery runs the same
// path. Idempotent; never fires for the local rank.
func (d *Detector) DeclareDead(rank int) {
	if rank < 0 || rank >= len(d.state) || rank == d.NIC.Rank() {
		return
	}
	d.declareDead(rank)
}

func (d *Detector) declareDead(rank int) {
	for {
		s := d.state[rank].Load()
		if s == peerDead {
			return
		}
		if d.state[rank].CompareAndSwap(s, peerDead) {
			if s == peerSuspect {
				d.nSuspect.Add(-1)
			}
			d.nDead.Add(1)
			if d.onDead != nil {
				d.onDead(rank)
			}
			return
		}
	}
}

// observe refreshes rank's last-seen stamp on any inbound activity and
// clears a suspicion. Death is sticky.
func (d *Detector) observe(rank int, now int64) {
	if rank < 0 || rank >= len(d.lastSeen) {
		return
	}
	d.lastSeen[rank].Store(now)
	if d.state[rank].Load() == peerSuspect &&
		d.state[rank].CompareAndSwap(peerSuspect, peerAlive) {
		d.nSuspect.Add(-1)
	}
}

// probeLoop pings quiet peers each period and advances their liveness
// state machines.
func (d *Detector) probeLoop() {
	defer d.wg.Done()
	tick := time.NewTicker(d.cfg.Period)
	defer tick.Stop()
	self := d.NIC.Rank()
	for {
		select {
		case <-d.quit:
			return
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		d.coarse.Store(now)
		for p := range d.lastSeen {
			if p == self || d.state[p].Load() == peerDead {
				continue
			}
			silent := time.Duration(now - d.lastSeen[p].Load())
			switch {
			case silent >= d.cfg.DeadAfter:
				d.declareDead(p)
				continue
			case silent >= d.cfg.SuspectAfter:
				if d.state[p].CompareAndSwap(peerAlive, peerSuspect) {
					d.nSuspect.Add(1)
				}
			}
			if silent >= d.cfg.Period && d.probing[p].CompareAndSwap(false, true) {
				// Quiet link: probe, off the prober goroutine — a probe
				// toward a down or booting peer can block in connection
				// establishment for the full dial timeout, and the state
				// machine must keep ticking for every other peer
				// meanwhile. One probe in flight per peer. Errors are
				// silence, which is what the state machine measures.
				go func(p int, now int64) {
					defer d.probing[p].Store(false)
					_ = d.NIC.Send(p, Header{Kind: KindHeartbeatPing, Aux0: now})
				}(p, now)
			}
		}
	}
}

// Recv implements NIC: heartbeat packets are consumed here (never
// surfaced to the transport) and every inbound packet refreshes its
// sender's last-seen stamp.
func (d *Detector) Recv() (*Packet, bool) {
	for {
		pkt, ok := d.NIC.Recv()
		if !ok {
			return nil, false
		}
		d.observe(pkt.From, d.coarse.Load())
		switch pkt.Hdr.Kind {
		case KindHeartbeatPing:
			from := pkt.From
			stamp := pkt.Hdr.Aux0
			pkt.Release()
			_ = d.NIC.Send(from, Header{Kind: KindHeartbeatPong, Aux0: stamp})
		case KindHeartbeatPong:
			if d.rtt != nil && pkt.Hdr.Aux0 > 0 {
				d.rtt.Observe(time.Now().UnixNano() - pkt.Hdr.Aux0)
			}
			pkt.Release()
		default:
			return pkt, true
		}
	}
}

// Close stops the prober and closes the inner NIC, which unblocks Recv.
func (d *Detector) Close() error {
	var err error
	d.closeOnce.Do(func() {
		close(d.quit)
		d.wg.Wait()
		err = d.NIC.Close()
	})
	return err
}
