package ucp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// reliableFab and reliableCfg are the fabric and transport configuration
// the fault matrix runs under: small checksummed fragments so every message
// spans many packets and a corrupt one is caught, fast retransmit so
// recovery happens within test time.
func reliableFab() fabric.Config { return fabric.Config{FragSize: 1024, Checksum: true} }

func reliableCfg() Config {
	return Config{
		Reliable:      true,
		RndvThresh:    32 * 1024,
		RexmitBase:    time.Millisecond,
		RexmitMax:     20 * time.Millisecond,
		RexmitRetries: 200,
	}
}

// lossyPlan injects the full adversary: drop, duplicate, reorder, corrupt
// and truncate on every outbound packet kind (control and data alike).
func lossyPlan(seed int64) fabric.FaultPlan {
	return fabric.FaultPlan{Seed: seed, Rules: []fabric.FaultRule{
		{Peer: -1, Action: fabric.Drop, Prob: 0.15},
		{Peer: -1, Action: fabric.Duplicate, Prob: 0.15},
		{Peer: -1, Action: fabric.Reorder, Prob: 0.15},
		{Peer: -1, Action: fabric.Corrupt, Prob: 0.10},
		{Peer: -1, Action: fabric.Truncate, Prob: 0.05, Bytes: 3},
	}}
}

// reorderPlan reorders half the outbound packets and does nothing else; the
// worker needs Reliable under it (an unacked one drops a fragment that
// arrives before its message's first).
func reorderPlan(seed int64) fabric.FaultPlan {
	return fabric.FaultPlan{Seed: seed, Rules: []fabric.FaultRule{{Peer: -1, Action: fabric.Reorder, Prob: 0.5}}}
}

// faultWorkers builds a 2-rank inproc fabric with both NICs wrapped in
// fault plans (seed on rank 0, seed+1 on rank 1 so the two directions
// draw independent decisions).
func faultWorkers(t *testing.T, seed int64, fcfg fabric.Config, cfg Config, mkPlan func(int64) fabric.FaultPlan) (*Worker, *Worker) {
	t.Helper()
	f := fabric.NewInproc(2, fcfg)
	a := NewWorker(fabric.WrapFault(f.NIC(0), mkPlan(seed)), cfg)
	b := NewWorker(fabric.WrapFault(f.NIC(1), mkPlan(seed+1)), cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	})
	return a, b
}

// faultSeeds are the fixed seeds the CI fault matrix pins.
var faultSeeds = []int64{1, 42, 20240711}

func TestFaultMatrixEagerContig(t *testing.T) {
	for _, seed := range faultSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			a, b := faultWorkers(t, seed, reliableFab(), reliableCfg(), lossyPlan)
			for i := 0; i < 8; i++ {
				size := 1 + i*3000 // sub-fragment through multi-fragment
				data := pattern(size, byte(i))
				out := make([]byte, size)
				rr, err := b.Recv(0, Tag(i), exactMask, Contig{}, out, int64(size))
				if err != nil {
					t.Fatal(err)
				}
				sr, err := a.Send(1, Tag(i), Contig{}, data, int64(size), 0, ProtoEager)
				if err != nil {
					t.Fatal(err)
				}
				if err := WaitAll(sr, rr); err != nil {
					t.Fatalf("transfer %d: %v", i, err)
				}
				if !bytes.Equal(out, data) {
					t.Fatalf("transfer %d: bytes corrupted in delivery", i)
				}
				if _, _, n := rr.Status(); n != int64(size) {
					t.Fatalf("transfer %d: delivered %d of %d bytes", i, n, size)
				}
			}
		})
	}
}

func TestFaultMatrixEagerGeneric(t *testing.T) {
	for _, seed := range faultSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			a, b := faultWorkers(t, seed, reliableFab(), reliableCfg(), lossyPlan)
			const size = 20000
			for i, inorder := range []bool{false, true} {
				ops := &xorOps{key: 0x3C}
				data := pattern(size, byte(40+i))
				out := make([]byte, size)
				rr, _ := b.Recv(0, Tag(i), exactMask, Generic{Ops: ops, InOrder: inorder}, out, size)
				sr, err := a.Send(1, Tag(i), Generic{Ops: ops, InOrder: inorder}, data, size, 0, ProtoEager)
				if err != nil {
					t.Fatal(err)
				}
				if err := WaitAll(sr, rr); err != nil {
					t.Fatalf("inorder=%v: %v", inorder, err)
				}
				if !bytes.Equal(out, data) {
					t.Fatalf("inorder=%v: bytes corrupted in delivery", inorder)
				}
			}
		})
	}
}

func TestFaultMatrixRendezvous(t *testing.T) {
	// Rendezvous control traffic (RTS/FIN) crosses the lossy links and the
	// pull itself sees injected Get failures; the transfer must still land
	// exactly once.
	mkPlan := func(seed int64) fabric.FaultPlan {
		p := lossyPlan(seed)
		p.Rules = append(p.Rules, fabric.FaultRule{Peer: -1, Action: fabric.FailGet, Prob: 1, Count: 2})
		return p
	}
	for _, seed := range faultSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			a, b := faultWorkers(t, seed, reliableFab(), reliableCfg(), mkPlan)
			const size = 100000
			for i := 0; i < 3; i++ {
				data := pattern(size, byte(7+i))
				out := make([]byte, size)
				rr, _ := b.Recv(0, Tag(i), exactMask, Contig{}, out, int64(size))
				sr, err := a.Send(1, Tag(i), Contig{}, data, int64(size), 0, ProtoRndv)
				if err != nil {
					t.Fatal(err)
				}
				if err := WaitAll(sr, rr); err != nil {
					t.Fatalf("transfer %d: %v", i, err)
				}
				if !bytes.Equal(out, data) {
					t.Fatalf("transfer %d: bytes corrupted in delivery", i)
				}
			}
		})
	}
}

func TestFaultMatrixIovRendezvous(t *testing.T) {
	for _, seed := range faultSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			a, b := faultWorkers(t, seed, reliableFab(), reliableCfg(), lossyPlan)
			rows, width := 40, 500
			sdata := make([][]byte, rows)
			rdata := make([][]byte, rows)
			var flat []byte
			for r := range sdata {
				sdata[r] = pattern(width, byte(r))
				flat = append(flat, sdata[r]...)
				rdata[r] = make([]byte, width)
			}
			rr, _ := b.Recv(0, 5, exactMask, Iov{}, rdata, -1)
			sr, err := a.Send(1, 5, Iov{}, sdata, -1, 0, ProtoRndv)
			if err != nil {
				t.Fatal(err)
			}
			if err := WaitAll(sr, rr); err != nil {
				t.Fatal(err)
			}
			var got []byte
			for _, row := range rdata {
				got = append(got, row...)
			}
			if !bytes.Equal(got, flat) {
				t.Fatal("iov rendezvous bytes corrupted in delivery")
			}
		})
	}
}

func TestLinkDownWaitTimeoutAndRexmitExhaustion(t *testing.T) {
	downPlan := func(int64) fabric.FaultPlan {
		return fabric.FaultPlan{Seed: 1, Rules: []fabric.FaultRule{
			{Peer: 1, Action: fabric.LinkDown, Prob: 1, Count: 1, Down: -1},
		}}
	}
	cfg := reliableCfg()
	cfg.RexmitRetries = 5
	f := fabric.NewInproc(2, reliableFab())
	a := NewWorker(fabric.WrapFault(f.NIC(0), downPlan(0)), cfg)
	b := NewWorker(f.NIC(1), cfg)
	defer func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	}()

	data := pattern(4000, 1)
	sr, err := a.Send(1, 1, Contig{}, data, 4000, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	// The link is down, so the send cannot complete — but WaitTimeout must
	// return ErrTimeout instead of hanging.
	if err := sr.WaitTimeout(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("WaitTimeout on down link = %v, want ErrTimeout", err)
	}
	// Once the retransmission budget runs out, the request itself fails
	// with ErrTimeout.
	if err := sr.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted send = %v, want ErrTimeout", err)
	}
	if a.Stats().Timeouts.Load() == 0 || a.Stats().Retransmits.Load() == 0 {
		t.Fatal("timeout/retransmit counters did not advance")
	}
}

func TestRecvDeadlineTimesOut(t *testing.T) {
	cfg := Config{ReqTimeout: 20 * time.Millisecond}
	a, b := pair(t, fabric.Config{}, cfg)
	_ = a
	out := make([]byte, 10)
	rr, err := b.Recv(0, 99, exactMask, Contig{}, out, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unmatched posted receive = %v, want ErrTimeout", err)
	}
	if b.Stats().Timeouts.Load() == 0 {
		t.Fatal("Timeouts counter did not advance")
	}
}

func TestGetRetryRecoversAndStripeFallback(t *testing.T) {
	// Two stripes, each making one attempt plus getRetries retries: that
	// many Gets fail, exhausting both stripes; the sequential full-range
	// fallback then succeeds.
	failPlan := func(int64) fabric.FaultPlan {
		return fabric.FaultPlan{Seed: 3, Rules: []fabric.FaultRule{
			{Peer: -1, Action: fabric.FailGet, Prob: 1, Count: 2 * (1 + getRetries)},
		}}
	}
	cfg := Config{
		Reliable:      true,
		PullStripes:   2,
		RexmitBase:    time.Millisecond,
		RexmitMax:     10 * time.Millisecond,
		RexmitRetries: 200,
	}
	f := fabric.NewInproc(2, fabric.Config{FragSize: 4096})
	a := NewWorker(f.NIC(0), cfg)
	b := NewWorker(fabric.WrapFault(f.NIC(1), failPlan(0)), cfg)
	defer func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	}()

	const size = 256 << 10 // the striping threshold
	data := pattern(size, 9)
	out := make([]byte, size)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, int64(size))
	sr, err := a.Send(1, 1, Contig{}, data, int64(size), 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("fallback pull delivered wrong bytes")
	}
	if b.Stats().GetRetries.Load() == 0 {
		t.Fatal("GetRetries counter did not advance")
	}
	if b.Stats().StripeFallbacks.Load() != 1 {
		t.Fatalf("StripeFallbacks = %d, want 1", b.Stats().StripeFallbacks.Load())
	}
}

func TestCorruptEagerWithoutReliableFailsWithErrCorrupt(t *testing.T) {
	corruptPlan := func(int64) fabric.FaultPlan {
		return fabric.FaultPlan{Seed: 2, Rules: []fabric.FaultRule{
			{Peer: -1, Action: fabric.Corrupt, Prob: 1, Count: 1},
		}}
	}
	f := fabric.NewInproc(2, fabric.Config{FragSize: 1024, Checksum: true})
	a := NewWorker(fabric.WrapFault(f.NIC(0), corruptPlan(0)), Config{})
	b := NewWorker(f.NIC(1), Config{})
	defer func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	}()

	data := pattern(5000, 4)
	out := make([]byte, 5000)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, 5000)
	if _, err := a.Send(1, 1, Contig{}, data, 5000, 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	if err := rr.Wait(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt unreliable receive = %v, want ErrCorrupt", err)
	}
	if b.Stats().CorruptDrops.Load() == 0 {
		t.Fatal("CorruptDrops counter did not advance")
	}
}

// TestAbortEntriesReaped pins that an abort for a message no receive
// ever claims does not leak in the unexpected queue: the abort arms a
// reap in every configuration, with or without a janitor, and the reap
// drops the entry once it is older than abortLinger. The test ages the
// parked entry by backdating its stamp and runs the armed reap at once
// instead of sleeping the linger out.
func TestAbortEntriesReaped(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"janitor", Config{ReqTimeout: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pair(t, fabric.Config{FragSize: 512}, tc.cfg)
			ops := &failPackOps{failAt: 1000}
			data := pattern(5000, 14)
			// No receive is ever posted: the abort parks an errored entry in
			// b's unexpected queue.
			sr, err := a.Send(1, 1, Generic{Ops: ops}, data, 5000, 0, ProtoEager)
			if err == nil {
				err = sr.Wait()
			}
			if err == nil {
				t.Fatal("send with failing pack should error")
			}
			deadline := time.Now().Add(2 * time.Second)
			for aged := false; !aged; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("no errored unexpected entry arrived")
				}
				b.mu.Lock()
				b.table.forEachUnexpected(func(m *unexMsg) {
					if m.errored != nil {
						m.erroredAt = m.erroredAt.Add(-abortLinger)
						aged = true
					}
				})
				armed := b.reaper != nil
				// A stopped timer leaves its count of b.wg to whoever runs
				// reap in its place.
				fire := aged && armed && b.reaper.Stop()
				b.mu.Unlock()
				if aged && !armed {
					t.Fatal("an errored unexpected entry armed no reap")
				}
				if fire {
					b.reap()
				}
			}
			for b.Stats().AbortsReaped.Load() == 0 {
				if time.Now().After(deadline) {
					b.mu.Lock()
					left := b.table.lenUnexpected()
					b.mu.Unlock()
					t.Fatalf("errored unexpected entry was never reaped (%d unexpected left)", left)
				}
				time.Sleep(time.Millisecond)
			}
			b.mu.Lock()
			left, rearmed := b.table.lenUnexpected(), b.reaper != nil
			b.mu.Unlock()
			if left != 0 {
				t.Fatalf("%d unexpected entries remain after reaping", left)
			}
			if rearmed {
				t.Fatal("a reap is still armed with no errored entry left")
			}
		})
	}
}

// TestReliableStatsConsistency sanity-checks the new counters under a
// deterministic duplicate-heavy plan: duplicates must be suppressed, not
// redelivered.
func TestReliableDuplicateSuppression(t *testing.T) {
	dupPlan := func(seed int64) fabric.FaultPlan {
		return fabric.FaultPlan{Seed: seed, Rules: []fabric.FaultRule{
			{Peer: -1, Action: fabric.Duplicate, Prob: 1},
		}}
	}
	a, b := faultWorkers(t, 11, reliableFab(), reliableCfg(), dupPlan)
	const size = 10000
	data := pattern(size, 3)
	out := make([]byte, size)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, int64(size))
	sr, err := a.Send(1, 1, Contig{}, data, int64(size), 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("duplicated transfer corrupted")
	}
	if b.Stats().DupFrags.Load() == 0 {
		t.Fatal("every fragment was duplicated but none were suppressed")
	}
}
