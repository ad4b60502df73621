package ucp

// Liveness detection, on when Config.Heartbeat.Period > 0. The progress loop
// stamps every packet's sender as last seen, so a busy link needs no probe; a
// tick each Period pings the quiet peers, and a pong echoes the ping's clock
// into a round-trip histogram. Silence past SuspectAfter makes a peer
// suspect, past DeadAfter dead. Worker.dead is the one death record
// (DeclarePeerFailed in, Revive out); suspect is a flag beside it that any
// packet from the peer clears. The tick is a re-armed timer, so detection
// parks no goroutine; pings and pongs leave on short-lived goroutines, since
// neither the tick nor the progress loop may block on the wire, and Close
// waits for them.

import (
	"fmt"
	"sync/atomic"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// DetectorConfig tunes liveness detection. The zero value disables it; zero
// thresholds of an enabled one are defaulted.
type DetectorConfig struct {
	// Period is the probe cadence: a peer not heard from within one is
	// pinged every tick. Zero disables detection.
	Period time.Duration
	// SuspectAfter is the silence after which a peer is suspected
	// (default 4×Period).
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a peer is declared dead
	// (default 10×Period). Death is sticky: a late packet is still
	// delivered, but only Revive (elastic re-admission of a respawned
	// process) returns the rank to the alive state.
	DeadAfter time.Duration
	// BootGrace pushes every peer's first last-seen stamp that far into the
	// future; the peer's first packet resumes normal accounting. Static
	// worlds leave it zero, so a peer that never starts is still declared
	// dead. A respawned elastic joiner needs it: the survivors stay silent
	// until they invite it, and declaring them dead first would mute the
	// joiner and deadlock its re-admission.
	BootGrace time.Duration
}

// withDefaults fills an enabled config's zero thresholds and clears a
// disabled one.
func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Period <= 0 {
		return DetectorConfig{}
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.Period
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * c.Period
	}
	c.DeadAfter = max(c.DeadAfter, c.SuspectAfter)
	return c
}

// liveness is the worker's detection state.
type liveness struct {
	lastSeen []atomic.Int64 // per peer: its last packet, ns on the coarse clock
	suspect  []atomic.Bool  // per peer: silent past SuspectAfter, or its link broke
	probing  []atomic.Bool  // per peer: a ping or pong toward it is on its way

	// coarse is a Period-granularity clock the tick refreshes, so the loop
	// stamps without calling time.Now; the thresholds, multiples of Period,
	// absorb a stamp one Period old.
	coarse atomic.Int64

	nSuspect atomic.Int64
	rtt      *obs.Histogram // nil without an observer
	tick     *time.Timer    // guarded by Worker.jobMu
}

// startLiveness arms the first tick when Config.Heartbeat enables detection.
// The tick holds one count of w.wg until Close stops it. With an observer,
// hb.r<rank>.peers_suspected, peers_dead and rtt_ns report into it.
func (w *Worker) startLiveness() {
	cfg := w.cfg.Heartbeat
	if cfg.Period <= 0 {
		return
	}
	n := w.Size()
	l := &liveness{lastSeen: make([]atomic.Int64, n), suspect: make([]atomic.Bool, n), probing: make([]atomic.Bool, n)}
	now := time.Now().UnixNano()
	l.coarse.Store(now)
	for i := range l.lastSeen {
		l.lastSeen[i].Store(now + cfg.BootGrace.Nanoseconds())
	}
	if o := w.fab.Obs; o != nil && o.Registry != nil {
		p := func(name string) string { return fmt.Sprintf("hb.r%d.%s", w.Rank(), name) }
		o.Registry.GaugeFunc(p("peers_suspected"), l.nSuspect.Load)
		o.Registry.GaugeFunc(p("peers_dead"), w.deadCount.Load)
		l.rtt = o.Registry.Histogram(p("rtt_ns"))
	}
	w.live = l
	w.wg.Add(1)
	w.jobMu.Lock()
	l.tick = time.AfterFunc(cfg.Period, w.livenessTick)
	w.jobMu.Unlock()
}

// DeadAfter is the most a silence verdict can lag the failure, or zero when
// detection is off: how long a layer that saw a link error waits for one.
func (w *Worker) DeadAfter() time.Duration { return w.cfg.Heartbeat.DeadAfter }

// livenessTick declares or suspects the silent peers and pings the quiet
// ones, then re-arms unless Close has begun.
func (w *Worker) livenessTick() {
	if !w.quitting() {
		l, cfg, self := w.live, w.cfg.Heartbeat, w.Rank()
		now := time.Now().UnixNano()
		l.coarse.Store(now)
		for p := range l.lastSeen {
			if p == self || w.dead[p].Load() {
				continue
			}
			silent := time.Duration(now - l.lastSeen[p].Load())
			switch {
			case silent >= cfg.DeadAfter:
				w.DeclarePeerFailed(p)
				continue
			case silent >= cfg.SuspectAfter:
				w.suspectPeer(p)
			}
			if silent >= cfg.Period {
				w.heartbeat(p, kindPing, now)
			}
		}
	}
	w.jobMu.Lock()
	stop := w.quitting()
	if !stop {
		w.live.tick.Reset(w.cfg.Heartbeat.Period)
	}
	w.jobMu.Unlock()
	if stop {
		w.wg.Done()
	}
}

// seen stamps a packet's sender as heard from, as the packet is delivered.
func (l *liveness) seen(from int) {
	if from >= 0 && from < len(l.lastSeen) {
		l.lastSeen[from].Store(l.coarse.Load())
		l.clearSuspect(from)
	}
}

func (l *liveness) clearSuspect(p int) {
	if l.suspect[p].Load() && l.suspect[p].CompareAndSwap(true, false) {
		l.nSuspect.Add(-1)
	}
}

// suspectPeer marks an alive peer suspect; only silence makes it dead. A
// racing DeclarePeerFailed clears the mark after setting dead, and the
// re-check here catches the other order, so no dead peer stays suspect.
func (w *Worker) suspectPeer(p int) {
	l := w.live
	if p < 0 || p >= len(l.suspect) || p == w.Rank() || w.dead[p].Load() {
		return
	}
	if l.suspect[p].CompareAndSwap(false, true) {
		l.nSuspect.Add(1)
		if w.dead[p].Load() {
			l.clearSuspect(p)
		}
	}
}

// handleHeartbeat answers a ping with a pong and times a pong. A worker
// without detection ignores both.
func (w *Worker) handleHeartbeat(pkt *fabric.Packet) {
	from, kind, stamp := pkt.From, pkt.Hdr.Kind, pkt.Hdr.Aux0
	pkt.Release()
	switch l := w.live; {
	case l == nil:
	case kind == kindPing:
		w.heartbeat(from, kindPong, stamp)
	case l.rtt != nil && stamp > 0:
		l.rtt.Observe(time.Now().UnixNano() - stamp)
	}
}

// heartbeat sends a ping or pong to p off the tick or the progress loop: a
// send can wait out a dial to a booting peer or a full ring. One is in
// flight per peer, and one finding another on its way is dropped — either
// tells p this rank is alive. A failed send is silence, which p measures.
// Each send holds a count of w.wg, taken under jobMu unless Close has begun,
// so Close returns only once it is over: its nic.Close releases a send
// waiting out a dial, and the send's buffer is back in the pool.
func (w *Worker) heartbeat(p int, kind fabric.Kind, stamp int64) {
	l := w.live
	if p < 0 || p >= len(l.probing) || !l.probing[p].CompareAndSwap(false, true) {
		return
	}
	w.jobMu.Lock()
	if w.quitting() {
		w.jobMu.Unlock()
		l.probing[p].Store(false)
		return
	}
	w.wg.Add(1)
	w.jobMu.Unlock()
	go w.sendHeartbeat(p, fabric.Header{Kind: kind, Aux0: stamp})
}

func (w *Worker) sendHeartbeat(p int, hdr fabric.Header) {
	defer w.wg.Done()
	_ = w.nic.Send(p, hdr)
	w.live.probing[p].Store(false)
}
