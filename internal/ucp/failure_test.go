package ucp

import (
	"errors"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// Failure-notification regression tests. The defining property under
// test: a blocked operation bound to a dead peer completes with
// ErrProcFailed through the liveness detector alone — no ReqTimeout is
// configured anywhere in this file, so before failure notification
// existed every one of these tests hung forever.

// hbCfg is the detector-enabled transport configuration: fast heartbeat
// cadence so deaths are declared within test time, no request deadline.
func hbCfg() Config {
	return Config{Heartbeat: DetectorConfig{
		Period:       2 * time.Millisecond,
		SuspectAfter: 8 * time.Millisecond,
		DeadAfter:    25 * time.Millisecond,
	}}
}

// killWorld brings up an n-rank inproc world where every NIC is wrapped
// in a fault plan sharing one kill switch, so killing a rank silences it
// for every peer in both directions.
func killWorld(t *testing.T, n int, cfg Config) ([]*Worker, []*fabric.FaultNIC) {
	t.Helper()
	ks := fabric.NewKillSwitch()
	f := fabric.NewInproc(n, fabric.Config{})
	ws := make([]*Worker, n)
	fns := make([]*fabric.FaultNIC, n)
	for i := range ws {
		fns[i] = fabric.WrapFault(f.NIC(i), fabric.FaultPlan{Kills: ks})
		ws[i] = NewWorker(fns[i], cfg)
	}
	t.Cleanup(func() {
		for _, w := range ws {
			w.Close()
		}
	})
	return ws, fns
}

// waitFailed blocks until w has declared rank dead (detector latency).
func waitFailed(t *testing.T, w *Worker, rank int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !w.PeerFailed(rank) {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never declared failed", rank)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitErr waits for a request with a hang guard: these tests assert the
// absence of an infinite block, so they must not block infinitely
// themselves.
func waitErr(t *testing.T, r *Request) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("request still blocked 10s after peer death (regression: no failure notification)")
		return nil
	}
}

// TestRecvDeadPeerNoTimeout is the core regression: a blocking receive
// from a peer that dies mid-wait, with no ReqTimeout configured.
func TestRecvDeadPeerNoTimeout(t *testing.T) {
	ws, fns := killWorld(t, 2, hbCfg())
	buf := make([]byte, 16)
	r, err := ws[0].Recv(1, 7, exactMask, Contig{}, buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	fns[1].Kill()
	if err := waitErr(t, r); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("Recv from dead peer = %v, want ErrProcFailed", err)
	}
	if ws[0].StatsSnapshot().PeerFailures != 1 {
		t.Fatal("peer_failures counter did not record the death")
	}
}

// TestRecvAnySourceAllSendersDead: an AnySource receive can only be
// satisfied by some remote sender; when every possible sender is dead it
// must fail rather than wait for a message that cannot arrive.
func TestRecvAnySourceAllSendersDead(t *testing.T) {
	ws, fns := killWorld(t, 3, hbCfg())
	buf := make([]byte, 16)
	r, err := ws[0].Recv(-1, 7, exactMask, Contig{}, buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	fns[1].Kill()
	// One survivor left: the receive must keep waiting.
	waitFailed(t, ws[0], 1)
	if done, _ := r.Test(); done {
		t.Fatal("AnySource receive completed while a live sender remained")
	}
	fns[2].Kill()
	if err := waitErr(t, r); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("AnySource with all senders dead = %v, want ErrProcFailed", err)
	}
	// Posting after the fact fails fast too.
	waitFailed(t, ws[0], 2)
	if _, err := ws[0].Recv(-1, 7, exactMask, Contig{}, buf, 16); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("post-mortem AnySource recv = %v, want ErrProcFailed", err)
	}
}

// TestProbeDeadPeer: blocking Probe and Mprobe wake on peer death.
func TestProbeDeadPeer(t *testing.T) {
	ws, fns := killWorld(t, 2, hbCfg())
	type res struct {
		m   *Message
		err error
	}
	probe := make(chan res, 1)
	mprobe := make(chan res, 1)
	go func() {
		m, err := ws[0].Probe(1, 7, exactMask, true)
		probe <- res{m, err}
	}()
	go func() {
		m, err := ws[0].Mprobe(1, 7, exactMask, true)
		mprobe <- res{m, err}
	}()
	time.Sleep(5 * time.Millisecond) // let both blocks establish
	fns[1].Kill()
	for name, ch := range map[string]chan res{"Probe": probe, "Mprobe": mprobe} {
		select {
		case r := <-ch:
			if !errors.Is(r.err, ErrProcFailed) {
				t.Fatalf("%s on dead peer = %v, want ErrProcFailed", name, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked after peer death", name)
		}
	}
}

// TestSendDeadPeerFailsFast: once the death is known, new sends to the
// peer are refused immediately instead of burning a retransmit budget.
func TestSendDeadPeerFailsFast(t *testing.T) {
	ws, fns := killWorld(t, 2, hbCfg())
	fns[1].Kill()
	waitFailed(t, ws[0], 1)
	start := time.Now()
	if _, err := ws[0].Send(1, 7, Contig{}, make([]byte, 8), 8, 0, ProtoEager); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("Send to dead peer = %v, want ErrProcFailed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fail-fast send took %v", d)
	}
}

// TestRndvSendDeadReceiver: a rendezvous send whose RTS is never
// answered (the receiver died before posting) completes with
// ErrProcFailed instead of waiting forever for the FIN.
func TestRndvSendDeadReceiver(t *testing.T) {
	cfg := hbCfg()
	cfg.RndvThresh = 1024
	ws, fns := killWorld(t, 2, cfg)
	data := pattern(8192, 3)
	r, err := ws[0].Send(1, 7, Contig{}, data, int64(len(data)), 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	fns[1].Kill()
	if err := waitErr(t, r); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("rndv send to dead receiver = %v, want ErrProcFailed", err)
	}
}

// TestRndvRecvDeadSender: the sender dies after its RTS arrives but
// before the payload can be pulled; the posted receive must fail (a
// dead rank's registered memory is gone — the pull can never succeed).
func TestRndvRecvDeadSender(t *testing.T) {
	cfg := hbCfg()
	cfg.RndvThresh = 1024
	ws, fns := killWorld(t, 2, cfg)
	data := pattern(8192, 3)
	if _, err := ws[0].Send(1, 7, Contig{}, data, int64(len(data)), 0, ProtoAuto); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the RTS land unexpected at rank 1
	fns[0].Kill()
	waitFailed(t, ws[1], 0)
	buf := make([]byte, len(data))
	r, err := ws[1].Recv(0, 7, exactMask, Contig{}, buf, int64(len(buf)))
	if err != nil {
		if !errors.Is(err, ErrProcFailed) {
			t.Fatalf("recv post-death = %v, want ErrProcFailed (or a poisoned match)", err)
		}
		return
	}
	if err := waitErr(t, r); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("rndv recv from dead sender = %v, want ErrProcFailed", err)
	}
}

// TestEagerDeliveredBeforeDeathStillReceivable pins the ULFM rule: a
// message fully handed to the transport before the sender died is still
// matchable and receivable afterwards.
func TestEagerDeliveredBeforeDeathStillReceivable(t *testing.T) {
	ws, fns := killWorld(t, 2, hbCfg())
	data := pattern(64, 5)
	if _, err := ws[0].Send(1, 7, Contig{}, data, int64(len(data)), 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	// Wait for the unexpected message to be fully buffered at rank 1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, err := ws[1].Probe(0, 7, exactMask, false); err == nil && m != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eager message never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	fns[0].Kill()
	waitFailed(t, ws[1], 0)
	buf := make([]byte, len(data))
	r, err := ws[1].Recv(0, 7, exactMask, Contig{}, buf, int64(len(buf)))
	if err != nil {
		t.Fatalf("recv of pre-death message refused: %v", err)
	}
	if err := waitErr(t, r); err != nil {
		t.Fatalf("pre-death message not delivered: %v", err)
	}
	for i := range data {
		if buf[i] != data[i] {
			t.Fatalf("byte %d corrupted: %d != %d", i, buf[i], data[i])
		}
	}
	// But the next receive — matching nothing — fails.
	if _, err := ws[1].Recv(0, 7, exactMask, Contig{}, buf, int64(len(buf))); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("second recv from dead peer = %v, want ErrProcFailed", err)
	}
}

// TestWaitAllMidBatchFailure is the satellite-3 regression: when one
// request in a batch fails, WaitAll must dispose of the rest rather
// than wait blindly — the third receive here would otherwise block
// forever (its sender never sends, and there is no ReqTimeout).
func TestWaitAllMidBatchFailure(t *testing.T) {
	ws, fns := killWorld(t, 3, hbCfg())
	bufs := [3][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}

	r1, err := ws[0].Recv(1, 1, exactMask, Contig{}, bufs[0], 16)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ws[0].Recv(2, 2, exactMask, Contig{}, bufs[1], 16)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ws[0].Recv(1, 3, exactMask, Contig{}, bufs[2], 16)
	if err != nil {
		t.Fatal(err)
	}
	// r1 completes, r2's peer dies, r3 never matches.
	if _, err := ws[1].Send(0, 1, Contig{}, pattern(16, 1), 16, 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	_ = waitErr(t, r1)
	fns[2].Kill()
	waitFailed(t, ws[0], 2)

	done := make(chan error, 1)
	go func() { done <- WaitAll(r1, r2, r3) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrProcFailed) {
			t.Fatalf("WaitAll = %v, want ErrProcFailed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitAll hung on the batch tail after a mid-batch failure")
	}
	// The tail request must be resolved (canceled), not left pending.
	if done, _ := r3.Test(); !done {
		t.Fatal("WaitAll left the tail receive pending")
	}
}
