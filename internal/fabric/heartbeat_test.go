package fabric

import (
	"sync/atomic"
	"testing"
	"time"

	"mpicd/internal/obs"
)

// drain pumps a detector's Recv loop (answering pings, timing pongs)
// until the underlying fabric closes, discarding data packets.
func drain(d *Detector) {
	go func() {
		for {
			pkt, ok := d.Recv()
			if !ok {
				return
			}
			pkt.Release()
		}
	}()
}

func TestDetectorConfigDefaults(t *testing.T) {
	cfg := NewDetectorConfig(DetectorConfig{Period: 10 * time.Millisecond})
	if cfg.SuspectAfter != 40*time.Millisecond {
		t.Fatalf("SuspectAfter = %v, want 4×Period", cfg.SuspectAfter)
	}
	if cfg.DeadAfter != 100*time.Millisecond {
		t.Fatalf("DeadAfter = %v, want 10×Period", cfg.DeadAfter)
	}
	// DeadAfter is never allowed below SuspectAfter.
	cfg = NewDetectorConfig(DetectorConfig{
		Period: time.Millisecond, SuspectAfter: 50 * time.Millisecond, DeadAfter: time.Millisecond,
	})
	if cfg.DeadAfter < cfg.SuspectAfter {
		t.Fatalf("DeadAfter %v < SuspectAfter %v", cfg.DeadAfter, cfg.SuspectAfter)
	}
	// Zero Period stays disabled (no defaulting).
	if cfg := NewDetectorConfig(DetectorConfig{}); cfg.SuspectAfter != 0 || cfg.DeadAfter != 0 {
		t.Fatal("disabled config grew thresholds")
	}
}

// TestDetectorPingPong verifies the live path: two detectors over a
// quiet fabric keep each other alive purely through probes, and the
// pong side times round trips into the RTT histogram.
func TestDetectorPingPong(t *testing.T) {
	o := obs.New(0)
	reg := o.Registry
	f := NewInproc(2, Config{Obs: o})
	defer f.Close()
	d0 := NewDetector(f.NIC(0), DetectorConfig{Period: 2 * time.Millisecond})
	d1 := NewDetector(f.NIC(1), DetectorConfig{Period: 2 * time.Millisecond})
	drain(d0)
	drain(d1)
	d0.Start()
	d1.Start()

	rtt := reg.Histogram("hb.r0.rtt_ns")
	deadline := time.Now().Add(2 * time.Second)
	for rtt.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if rtt.Count() == 0 {
		t.Fatal("no pong round trips observed")
	}
	if d0.PeerSuspected(1) || d0.PeerDead(1) || d1.PeerSuspected(0) || d1.PeerDead(0) {
		t.Fatal("responsive peer suspected or declared dead")
	}
	d0.Close()
	d1.Close()
}

// TestDetectorDeclaresDead verifies the death path: a peer whose
// traffic a shared kill switch swallows goes silent, crosses
// SuspectAfter then DeadAfter, and the OnDead callback fires exactly
// once. Death is sticky — late activity cannot resurrect the peer.
func TestDetectorDeclaresDead(t *testing.T) {
	ks := NewKillSwitch()
	f := NewInproc(2, Config{})
	defer f.Close()
	// Rank 0's pings to the dead rank vanish sender-side, so the prober
	// can never block on an undrained inbox.
	fn := WrapFault(f.NIC(0), FaultPlan{Kills: ks})
	d := NewDetector(fn, DetectorConfig{
		Period:       2 * time.Millisecond,
		SuspectAfter: 6 * time.Millisecond,
		DeadAfter:    20 * time.Millisecond,
	})
	var deaths atomic.Int64
	dead := make(chan int, 4)
	d.OnDead(func(rank int) {
		deaths.Add(1)
		dead <- rank
	})
	drain(d)
	ks.Kill(1)
	d.Start()
	defer d.Close()

	select {
	case rank := <-dead:
		if rank != 1 {
			t.Fatalf("OnDead(%d), want rank 1", rank)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("silent peer never declared dead")
	}
	if !d.PeerDead(1) || d.PeerSuspected(1) {
		t.Fatal("state machine inconsistent after death")
	}
	if n := d.nDead.Load(); n != 1 {
		t.Fatalf("peers_dead gauge = %d, want 1", n)
	}
	if n := d.nSuspect.Load(); n != 0 {
		t.Fatalf("peers_suspected gauge = %d, want 0 (suspicion resolved into death)", n)
	}
	// Sticky: observing late activity must not resurrect the peer.
	d.observe(1, time.Now().UnixNano())
	if !d.PeerDead(1) {
		t.Fatal("late packet resurrected a dead peer")
	}
	time.Sleep(10 * time.Millisecond) // more prober ticks must not re-fire
	if deaths.Load() != 1 {
		t.Fatalf("OnDead fired %d times, want exactly 1", deaths.Load())
	}
}

func TestDetectorDeclareDeadIdempotent(t *testing.T) {
	f := NewInproc(3, Config{})
	defer f.Close()
	d := NewDetector(f.NIC(0), DetectorConfig{Period: time.Hour}) // never probes
	var deaths atomic.Int64
	d.OnDead(func(int) { deaths.Add(1) })
	d.DeclareDead(1)
	d.DeclareDead(1)
	d.DeclareDead(0)  // self: ignored
	d.DeclareDead(-1) // out of range: ignored
	d.DeclareDead(7)
	if deaths.Load() != 1 {
		t.Fatalf("OnDead fired %d times, want 1", deaths.Load())
	}
	if !d.PeerDead(1) || d.PeerDead(0) || d.PeerDead(2) {
		t.Fatal("DeclareDead marked the wrong peers")
	}
	d.Close()
}

// TestDetectorPiggyback verifies that ordinary data traffic refreshes
// liveness without probes: with an effectively infinite probe period the
// only thing keeping the peer alive is the inbound data path.
func TestDetectorPiggyback(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	d := NewDetector(f.NIC(0), DetectorConfig{
		Period:       20 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    time.Hour, // this test is about suspicion only
	})
	defer d.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				_ = f.NIC(1).Send(0, Header{Kind: 1}, []byte{1})
			}
		}
	}()
	go func() {
		for {
			pkt, ok := d.Recv()
			if !ok {
				return
			}
			pkt.Release()
		}
	}()
	d.Start()
	time.Sleep(120 * time.Millisecond)
	if d.PeerSuspected(1) || d.PeerDead(1) {
		t.Fatal("peer with steady data traffic was suspected")
	}
}
