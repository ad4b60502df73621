package ucp

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// Regression: a blocking Probe used to loop on cond.Wait with no deadline,
// ignoring Config.ReqTimeout entirely — a probe against a silent peer hung
// forever even though a Recv in the same configuration would time out.
func TestProbeBlockingTimeout(t *testing.T) {
	cfg := Config{ReqTimeout: 20 * time.Millisecond}
	_, b := pair(t, fabric.Config{}, cfg)
	start := time.Now()
	m, err := b.Probe(-1, 5, exactMask, true)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("blocking probe with no sender = (%v, %v), want ErrTimeout", m, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("probe took %v to time out (janitor wake missing?)", took)
	}
	if b.Stats().Timeouts.Load() == 0 {
		t.Fatal("Timeouts counter did not advance")
	}
}

// A blocking Mprobe against a peer whose link is down (every outbound
// packet dropped at the sender NIC) must honor the deadline too.
func TestMprobeBlockingTimeoutLinkDown(t *testing.T) {
	downPlan := fabric.FaultPlan{Seed: 1, Rules: []fabric.FaultRule{
		{Peer: 1, Action: fabric.LinkDown, Prob: 1, Count: 1, Down: -1},
	}}
	cfg := reliableCfg()
	cfg.ReqTimeout = 30 * time.Millisecond
	cfg.RexmitRetries = 3
	f := fabric.NewInproc(2, fabric.Config{FragSize: cfg.FragSize})
	a := NewWorker(fabric.WrapFault(f.NIC(0), downPlan), cfg)
	b := NewWorker(f.NIC(1), cfg)
	defer func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	}()

	data := pattern(4000, 2)
	if _, err := a.Send(1, 3, Contig{}, data, 4000, 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	// Nothing from rank 0 ever arrives at rank 1.
	if m, err := b.Mprobe(0, 3, exactMask, true); !errors.Is(err, ErrTimeout) {
		t.Fatalf("mprobe across down link = (%v, %v), want ErrTimeout", m, err)
	}
}

// An eager message whose fragments are corrupted in flight before any
// match: the checksum layer drops the corrupt copies, retransmission
// repairs them, and a blocking Mprobe still observes the message and
// MRecv delivers intact bytes.
func TestMprobeCorruptEagerFragmentBeforeMatch(t *testing.T) {
	corruptPlan := fabric.FaultPlan{Seed: 7, Rules: []fabric.FaultRule{
		{Peer: -1, Action: fabric.Corrupt, Prob: 1, Count: 3},
	}}
	cfg := reliableCfg()
	cfg.ReqTimeout = 2 * time.Second
	f := fabric.NewInproc(2, fabric.Config{FragSize: cfg.FragSize})
	a := NewWorker(fabric.WrapFault(f.NIC(0), corruptPlan), cfg)
	b := NewWorker(f.NIC(1), cfg)
	defer func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	}()

	const size = 5000 // spans several 1 KiB fragments
	data := pattern(size, 3)
	sr, err := a.Send(1, 9, Contig{}, data, size, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Mprobe(0, 9, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != size {
		t.Fatalf("probed size = %d, want %d", m.Total, size)
	}
	out := make([]byte, size)
	rr, err := b.MRecv(m, Contig{}, out, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("bytes corrupted in delivery")
	}
	if b.Stats().CorruptDrops.Load() == 0 {
		t.Fatal("CorruptDrops counter did not advance")
	}
}

// Closing the worker must wake a blocked probe with ErrWorkerClosed.
func TestProbeBlockingWorkerClose(t *testing.T) {
	_, b := pair(t, fabric.Config{}, Config{})
	done := make(chan error, 1)
	go func() {
		_, err := b.Probe(-1, 1, exactMask, true)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWorkerClosed) {
			t.Fatalf("probe on closed worker = %v, want ErrWorkerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("probe did not wake on Close")
	}
}

// Regression: MRecv used to clear m.claimed before checking w.closed, so
// failing with ErrWorkerClosed stranded the message — a retry on the same
// handle was rejected as unclaimed ("requires a message claimed by
// Mprobe") instead of reporting the real condition.
func TestMRecvClosedWorkerPreservesClaim(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	data := pattern(64, 5)
	if _, err := a.Send(1, 4, Contig{}, data, 64, 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	m, err := b.Mprobe(0, 4, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	out := make([]byte, 64)
	if _, err := b.MRecv(m, Contig{}, out, 64); !errors.Is(err, ErrWorkerClosed) {
		t.Fatalf("MRecv on closed worker = %v, want ErrWorkerClosed", err)
	}
	// The claim survives the failure: a retry reports the same closed
	// condition rather than the misleading unclaimed-message error.
	_, err = b.MRecv(m, Contig{}, out, 64)
	if !errors.Is(err, ErrWorkerClosed) {
		t.Fatalf("retried MRecv = %v, want ErrWorkerClosed", err)
	}
	if err != nil && strings.Contains(err.Error(), "requires a message claimed") {
		t.Fatalf("retried MRecv lost the claim: %v", err)
	}
}

// A claimed eager message whose tail never arrives must fail within
// Config.ReqTimeout through MRecv exactly as it does through Recv: the
// janitor only sweeps receives that carry a deadline.
func TestMRecvHonorsReqTimeout(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{})
	raw := f.NIC(0)
	b := NewWorker(f.NIC(1), Config{ReqTimeout: 50 * time.Millisecond})
	defer func() {
		b.Close()
		poolDrained(t, f)
	}()
	// Fragment 0 of a 4 KiB message, and nothing after it.
	hdr := fabric.Header{Kind: kindEager, Tag: 5, MsgID: 1, Total: 4096}
	if err := raw.Send(1, hdr, pattern(1024, 1)); err != nil {
		t.Fatal(err)
	}
	m, err := b.Mprobe(0, 5, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	req, err := b.MRecv(m, Contig{}, make([]byte, 4096), 4096)
	if err != nil {
		t.Fatal(err)
	}
	err = req.WaitTimeout(2 * time.Second)
	if done, _ := req.Test(); !done {
		t.Fatal("MRecv of a message missing its tail is still pending after 40 x ReqTimeout")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("MRecv = %v, want ErrTimeout", err)
	}
}
