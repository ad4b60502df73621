package ucp

import (
	"io"
	"sync/atomic"
	"testing"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// peerState reads rank p's liveness off w: "alive", "suspect" or "dead".
func peerState(w *Worker, p int) string {
	switch {
	case w.PeerFailed(p):
		return "dead"
	case w.live != nil && w.live.suspect[p].Load():
		return "suspect"
	}
	return "alive"
}

// silentPeer brings up a 2-rank world where only rank 0 has a worker, over
// a fault wrapper whose kill switch has already killed rank 1: rank 1 never
// speaks, and rank 0's pings to it vanish sender-side.
func silentPeer(t *testing.T, o *obs.Observer, hb DetectorConfig) *Worker {
	t.Helper()
	ks := fabric.NewKillSwitch()
	ks.Kill(1)
	f := fabric.NewInproc(2, fabric.Config{Obs: o})
	w := NewWorker(fabric.WrapFault(f.NIC(0), fabric.FaultPlan{Kills: ks}), Config{Heartbeat: hb})
	t.Cleanup(func() {
		w.Close()
		f.Close()
	})
	return w
}

func TestDetectorConfigDefaults(t *testing.T) {
	cfg := DetectorConfig{Period: 10 * time.Millisecond}.withDefaults()
	if cfg.SuspectAfter != 40*time.Millisecond {
		t.Fatalf("SuspectAfter = %v, want 4×Period", cfg.SuspectAfter)
	}
	if cfg.DeadAfter != 100*time.Millisecond {
		t.Fatalf("DeadAfter = %v, want 10×Period", cfg.DeadAfter)
	}
	// DeadAfter is never allowed below SuspectAfter.
	cfg = DetectorConfig{
		Period: time.Millisecond, SuspectAfter: 50 * time.Millisecond, DeadAfter: time.Millisecond,
	}.withDefaults()
	if cfg.DeadAfter < cfg.SuspectAfter {
		t.Fatalf("DeadAfter %v < SuspectAfter %v", cfg.DeadAfter, cfg.SuspectAfter)
	}
	// Zero Period stays disabled, thresholds and all.
	if cfg := (DetectorConfig{DeadAfter: time.Second}).withDefaults(); cfg != (DetectorConfig{}) {
		t.Fatalf("disabled config resolved to %+v", cfg)
	}
}

// TestDetectorPingPong: two workers over a quiet fabric keep each other
// alive purely through pings and pongs, and the pongs fill the RTT
// histogram.
func TestDetectorPingPong(t *testing.T) {
	o := obs.New(0)
	a, b := pair(t, fabric.Config{Obs: o}, Config{Heartbeat: DetectorConfig{Period: 2 * time.Millisecond}})
	rtt := o.Registry.Histogram("hb.r0.rtt_ns")
	waitFor(t, "a pong round trip", func() bool { return rtt.Count() > 0 })
	if s0, s1 := peerState(a, 1), peerState(b, 0); s0 != "alive" || s1 != "alive" {
		t.Fatalf("responsive peers read %s and %s, want alive", s0, s1)
	}
}

// TestDetectorDeclaresDead: a silent peer crosses SuspectAfter, then
// DeadAfter, and is declared failed exactly once. The gauges settle at one
// dead and none suspected, and death is sticky: late activity cannot
// resurrect the peer.
func TestDetectorDeclaresDead(t *testing.T) {
	o := obs.New(0)
	w := silentPeer(t, o, DetectorConfig{
		Period:       2 * time.Millisecond,
		SuspectAfter: 6 * time.Millisecond,
		DeadAfter:    20 * time.Millisecond,
	})
	var deaths atomic.Int64
	w.OnPeerFailure(func(rank int) {
		if rank != 1 {
			t.Errorf("rank %d declared failed, want 1", rank)
		}
		deaths.Add(1)
	})
	waitFor(t, "the silent peer's death", func() bool { return deaths.Load() == 1 })
	if s := peerState(w, 1); s != "dead" {
		t.Fatalf("peer reads %s after its death", s)
	}
	gauges := o.Registry.Snapshot().Gauges
	if n := gauges["hb.r0.peers_dead"]; n != 1 {
		t.Fatalf("peers_dead gauge = %d, want 1", n)
	}
	if n := gauges["hb.r0.peers_suspected"]; n != 0 {
		t.Fatalf("peers_suspected gauge = %d, want 0 (suspicion resolved into death)", n)
	}
	w.live.seen(1) // a late packet
	if !w.PeerFailed(1) {
		t.Fatal("late packet resurrected a dead peer")
	}
	time.Sleep(10 * time.Millisecond) // more ticks must not declare it again
	if n := deaths.Load(); n != 1 {
		t.Fatalf("peer declared failed %d times, want exactly 1", n)
	}
}

// TestDetectorDeclareDeadIdempotent: repeated declarations count once, and
// the local rank and out-of-range ranks are ignored.
func TestDetectorDeclareDeadIdempotent(t *testing.T) {
	o := obs.New(0)
	f := fabric.NewInproc(3, fabric.Config{Obs: o})
	w := NewWorker(f.NIC(0), Config{Heartbeat: DetectorConfig{Period: time.Hour}}) // never probes
	defer f.Close()
	defer w.Close()
	var deaths atomic.Int64
	w.OnPeerFailure(func(int) { deaths.Add(1) })
	for _, r := range []int{1, 1, 0, -1, 7} {
		w.DeclarePeerFailed(r)
	}
	if n := deaths.Load(); n != 1 {
		t.Fatalf("%d failure callbacks, want 1", n)
	}
	if !w.PeerFailed(1) || w.PeerFailed(0) || w.PeerFailed(2) {
		t.Fatalf("failed peers %v, want [1]", w.FailedPeers())
	}
	if n := o.Registry.Snapshot().Gauges["hb.r0.peers_dead"]; n != 1 {
		t.Fatalf("peers_dead gauge = %d, want 1", n)
	}
}

// TestDetectorPiggyback: data traffic alone keeps a peer alive. Rank 1 runs
// no detection, so it answers no ping; its messages are all rank 0 hears.
func TestDetectorPiggyback(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{})
	w0 := NewWorker(f.NIC(0), Config{Heartbeat: DetectorConfig{
		Period:       20 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    time.Hour, // this test is about suspicion only
	}})
	w1 := NewWorker(f.NIC(1), Config{})
	defer poolDrained(t, f)
	defer w0.Close()
	defer w1.Close()
	for end := time.Now().Add(120 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if _, err := w1.Send(0, 1, Contig{}, []byte{1}, 1, 0, ProtoEager); err != nil {
			t.Fatal(err)
		}
	}
	if s := peerState(w0, 1); s != "alive" {
		t.Fatalf("peer with steady data traffic reads %s", s)
	}
}

// TestDetectorBootGrace: BootGrace keeps a peer that has not spoken yet
// alive until it expires, and no longer.
func TestDetectorBootGrace(t *testing.T) {
	w := silentPeer(t, nil, DetectorConfig{
		Period:       2 * time.Millisecond,
		SuspectAfter: 6 * time.Millisecond,
		DeadAfter:    20 * time.Millisecond,
		BootGrace:    400 * time.Millisecond,
	})
	time.Sleep(100 * time.Millisecond)
	if s := peerState(w, 1); s != "alive" {
		t.Fatalf("silent peer reads %s inside its boot grace", s)
	}
	waitFor(t, "the death after the grace", func() bool { return w.PeerFailed(1) })
}

// slowPongs holds each pong it sends for hold with a wire packet taken from
// the pool, the way a pong waiting out a dial or a full ring holds one, and
// counts the pongs inside Send.
type slowPongs struct {
	fabric.NIC
	hold     time.Duration
	inFlight *atomic.Int64
}

func (s *slowPongs) Send(to int, hdr fabric.Header, payload ...[]byte) error {
	if hdr.Kind != kindPong || len(payload) != 0 {
		return s.NIC.Send(to, hdr, payload...)
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	_, err := s.NIC.SendFrom(to, hdr, heldSource{s.hold}, 0, 0)
	return err
}

// heldSource is an empty source whose read takes its time.
type heldSource struct{ hold time.Duration }

func (heldSource) Size() int64 { return 0 }
func (h heldSource) ReadAt([]byte, int64) (int, error) {
	time.Sleep(h.hold)
	return 0, io.EOF
}

// TestCloseWaitsForHeartbeats: three ranks ping each other every
// millisecond and each pong holds a pool packet for 20 ms, so pongs are on
// their way when the workers close. Close returns only once its own are
// over: right after the last Close no pong is inside Send and every packet
// is back in the pool.
func TestCloseWaitsForHeartbeats(t *testing.T) {
	const n = 3
	f := fabric.NewInproc(n, fabric.Config{})
	var inFlight atomic.Int64
	ws := make([]*Worker, n)
	for i := range ws {
		nic := &slowPongs{NIC: f.NIC(i), hold: 20 * time.Millisecond, inFlight: &inFlight}
		ws[i] = NewWorker(nic, Config{Heartbeat: DetectorConfig{Period: time.Millisecond, DeadAfter: time.Hour}})
	}
	waitFor(t, "pongs in flight", func() bool { return inFlight.Load() >= 2 })
	for _, w := range ws {
		w.Close()
	}
	if k := inFlight.Load(); k != 0 {
		t.Fatalf("%d pongs still inside Send after every worker closed", k)
	}
	if k := f.PoolOutstanding(); k != 0 {
		t.Fatalf("%d wire packets out after every worker closed", k)
	}
	poolDrained(t, f)
}

// TestDetectorReviveGrace: a revived rank gets max(2×DeadAfter, 2 s) to boot
// before its silence counts again, and is declared anew after that.
func TestDetectorReviveGrace(t *testing.T) {
	w := silentPeer(t, nil, DetectorConfig{
		Period:       2 * time.Millisecond,
		SuspectAfter: 6 * time.Millisecond,
		DeadAfter:    20 * time.Millisecond,
	})
	var deaths atomic.Int64
	w.OnPeerFailure(func(int) { deaths.Add(1) })
	waitFor(t, "the first death", func() bool { return deaths.Load() == 1 })
	revived := time.Now()
	if err := w.Revive(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // 15×DeadAfter, well inside the 2 s grace
	if s := peerState(w, 1); s != "alive" {
		t.Fatalf("revived peer reads %s inside its grace", s)
	}
	waitFor(t, "the second death", func() bool { return deaths.Load() == 2 })
	if d := time.Since(revived); d < 2*time.Second {
		t.Fatalf("revived peer declared dead after %v, inside the 2 s grace", d)
	}
}
