package ucp

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// gateOps is a generic datatype for driving the transfer executor: every
// Unpack samples the goroutine count, reports that it was entered and then
// waits for the gate (nil: open), so a test can hold a puller inside a Get
// and see what queues up behind it. Finish counts its calls per side and,
// on the receive side, returns finishErr.
type gateOps struct {
	gate      chan struct{}
	openOnce  sync.Once
	entered   atomic.Int64
	packGate  chan struct{} // when set, every Pack counts itself in packing and waits for it
	packing   atomic.Int64
	maxG      atomic.Int64
	packFin   atomic.Int64
	unpackFin atomic.Int64
	finishErr error
}

// gated returns ops whose Gets wait until open is called; the test's cleanup
// calls it too, so a failed wait cannot leave a puller stuck under Close.
func gated(t *testing.T) *gateOps {
	o := &gateOps{gate: make(chan struct{})}
	t.Cleanup(o.open)
	return o
}

func (o *gateOps) open() { o.openOnce.Do(func() { close(o.gate) }) }

func (o *gateOps) StartPack(buf any, count int64) (PackState, error) {
	return &gatePack{o, buf.([]byte)[:count]}, nil
}

func (o *gateOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return &gateUnpack{o, buf.([]byte)[:count]}, nil
}

type gatePack struct {
	ops  *gateOps
	data []byte
}

func (p *gatePack) PackedSize() (int64, error) { return int64(len(p.data)), nil }
func (p *gatePack) Finish() error              { p.ops.packFin.Add(1); return nil }

func (p *gatePack) Pack(off int64, dst []byte) (int, error) {
	if p.ops.packGate != nil {
		p.ops.packing.Add(1)
		<-p.ops.packGate
	}
	return copy(dst, p.data[off:]), nil
}

type gateUnpack struct {
	ops  *gateOps
	data []byte
}

func (u *gateUnpack) UnpackedSize() (int64, error) { return int64(len(u.data)), nil }

func (u *gateUnpack) Unpack(off int64, src []byte) error {
	g := int64(runtime.NumGoroutine())
	for old := u.ops.maxG.Load(); g > old && !u.ops.maxG.CompareAndSwap(old, g); old = u.ops.maxG.Load() {
	}
	u.ops.entered.Add(1)
	if u.ops.gate != nil {
		<-u.ops.gate
	}
	copy(u.data[off:], src)
	return nil
}

func (u *gateUnpack) Finish() error { u.ops.unpackFin.Add(1); return u.ops.finishErr }

// waitFor polls cond, failing the test if it stays false for ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestExecutorBurstGoroutineBound: a burst of rendezvous messages is
// drained by at most PullStripes pullers, not by a goroutine a message.
// The count is sampled where the work happens, inside every Get.
func TestExecutorBurstGoroutineBound(t *testing.T) {
	const burst, size, stripes = 256, 4096, 2
	a, b := pair(t, fabric.Config{}, Config{PullStripes: stripes})
	ops := &gateOps{}
	dt := Generic{Ops: ops}
	data := pattern(size, 9)
	reqs := make([]*Request, 0, 2*burst)
	idle := int64(runtime.NumGoroutine())
	for i := 0; i < burst; i++ {
		rr, err := b.Recv(0, 1, exactMask, dt, make([]byte, size), size)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, rr)
	}
	for i := 0; i < burst; i++ {
		sr, err := a.Send(1, 1, dt, data, size, 0, ProtoRndv)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, sr)
	}
	if err := WaitAll(reqs...); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().SequentialPulls.Load(); got != burst {
		t.Fatalf("%d pulls, want %d", got, burst)
	}
	if peak := ops.maxG.Load(); peak > idle+stripes {
		t.Fatalf("goroutines peaked at %d during the burst, idle %d, PullStripes %d", peak, idle, stripes)
	}
}

// TestExecutorRetryHoldsNoPuller: with one puller, a peer whose every Get
// fails must not delay a healthy peer's pulls: between attempts the failed
// job waits on a timer, not asleep in the puller.
func TestExecutorRetryHoldsNoPuller(t *testing.T) {
	const size = 16 << 10
	backoff := time.Second
	cfg := Config{PullStripes: 1, RexmitBase: backoff, RexmitMax: backoff}
	f := fabric.NewInproc(3, fabric.Config{})
	lossy := fabric.WrapFault(f.NIC(1), fabric.FaultPlan{Seed: 1, Rules: []fabric.FaultRule{
		{Peer: 0, Action: fabric.FailGet, Prob: 1},
	}})
	bad, rx, good := NewWorker(f.NIC(0), cfg), NewWorker(lossy, cfg), NewWorker(f.NIC(2), cfg)
	t.Cleanup(func() {
		bad.Close()
		rx.Close()
		good.Close()
		poolDrained(t, f)
	})
	data := pattern(size, 4)
	stuck, err := rx.Recv(0, 1, exactMask, Contig{}, make([]byte, size), size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Send(1, 1, Contig{}, data, size, 0, ProtoRndv); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first Get from the lossy peer to fail", func() bool { return lossy.Stats().GetsFailed.Load() > 0 })

	start := time.Now()
	for i := 0; i < 8; i++ {
		out := make([]byte, size)
		rr, err := rx.Recv(2, 1, exactMask, Contig{}, out, size)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := good.Send(1, 1, Contig{}, data, size, 0, ProtoRndv)
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(sr, rr); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > backoff/2 {
		t.Fatalf("healthy pulls took %v behind a retry backing off %v", took, backoff)
	}
	if done, _ := stuck.Test(); done {
		t.Fatal("the pull from the lossy peer finished: nothing was waiting out a back-off")
	}
	// Close stops the timer and fails the job: it does not wait the back-off
	// out, and the receive is complete when it returns.
	start = time.Now()
	rx.Close()
	if took := time.Since(start); took > backoff/2 {
		t.Fatalf("Close took %v with a retry backing off %v", took, backoff)
	}
	if done, err := stuck.Test(); !done || !errors.Is(err, ErrWorkerClosed) {
		t.Fatalf("after Close the waiting pull is done=%v err=%v, want ErrWorkerClosed", done, err)
	}
}

// stallNIC is a NIC whose Gets from one peer never return until released:
// a stalled or stopped process, seen from a worker without a detector.
type stallNIC struct {
	fabric.NIC
	peer    int
	entered atomic.Int64
	release chan struct{}
}

func (n *stallNIC) Get(from int, key uint64, off int64, sink fabric.Sink, sinkOff, size int64) error {
	if from == n.peer {
		n.entered.Add(1)
		<-n.release
	}
	return n.NIC.Get(from, key, off, sink, sinkOff, size)
}

// TestExecutorStalledPeerStarvesNobody: a peer that never answers a Get, with
// more pulls outstanding than a lane has pullers and no detector to declare
// it, holds up its own lane only. Pulls from a healthy third rank and
// self-sends complete meanwhile, and the stalled pulls finish once it answers.
func TestExecutorStalledPeerStarvesNobody(t *testing.T) {
	const size, stalled = 16 << 10, 4
	cfg := Config{PullStripes: 1}
	f := fabric.NewInproc(3, fabric.Config{})
	nic := &stallNIC{NIC: f.NIC(1), peer: 0, release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(nic.release) }) }
	bad, rx, good := NewWorker(f.NIC(0), cfg), NewWorker(nic, cfg), NewWorker(f.NIC(2), cfg)
	t.Cleanup(func() {
		release()
		bad.Close()
		rx.Close()
		good.Close()
		poolDrained(t, f)
	})
	data := pattern(size, 6)
	var stuck []*Request
	for i := 0; i < stalled; i++ {
		rr, err := rx.Recv(0, 1, exactMask, Contig{}, make([]byte, size), size)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := bad.Send(1, 1, Contig{}, data, size, 0, ProtoRndv)
		if err != nil {
			t.Fatal(err)
		}
		stuck = append(stuck, rr, sr)
	}
	waitFor(t, "a Get from the stalled peer to begin", func() bool { return nic.entered.Load() > 0 })
	waitFor(t, "its other pulls to be matched", func() bool { return rx.QueueDepths().PendingPulls == stalled })
	for i := 0; i < 4; i++ {
		for _, from := range []*Worker{good, rx} {
			out := make([]byte, size)
			rr, err := rx.Recv(from.Rank(), 2, exactMask, Contig{}, out, size)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := from.Send(1, 2, Contig{}, data, size, 0, ProtoRndv)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Request{sr, rr} {
				if err := r.WaitTimeout(5 * time.Second); err != nil {
					t.Fatalf("transfer from rank %d behind a stalled peer: %v", from.Rank(), err)
				}
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("transfer from rank %d: payload differs", from.Rank())
			}
		}
	}
	if got := nic.entered.Load(); got != 1 {
		t.Fatalf("%d Gets from the stalled peer were begun with one puller a lane", got)
	}
	release()
	if err := WaitAll(stuck...); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorCloseWithQueuedJobs: Close with pulls still queued behind a
// busy puller fails each of them with ErrWorkerClosed, and every source the
// senders registered is finished exactly once.
func TestExecutorCloseWithQueuedJobs(t *testing.T) {
	const msgs, size = 8, 4096
	f := fabric.NewInproc(2, fabric.Config{})
	cfg := Config{PullStripes: 1}
	a, b := NewWorker(f.NIC(0), cfg), NewWorker(f.NIC(1), cfg)
	ops := gated(t)
	dt := Generic{Ops: ops}
	data := pattern(size, 5)
	var recvs, sends []*Request
	for i := 0; i < msgs; i++ {
		rr, err := b.Recv(0, 1, exactMask, dt, make([]byte, size), size)
		if err != nil {
			t.Fatal(err)
		}
		recvs = append(recvs, rr)
	}
	for i := 0; i < msgs; i++ {
		sr, err := a.Send(1, 1, dt, data, size, 0, ProtoRndv)
		if err != nil {
			t.Fatal(err)
		}
		sends = append(sends, sr)
	}
	waitFor(t, "the first pull to enter its Get", func() bool { return ops.entered.Load() > 0 })
	waitFor(t, "the other pulls to be queued", func() bool { return b.QueueDepths().PendingPulls == msgs })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Close()
	}()
	waitFor(t, "Close to begin", b.quitting)
	ops.open()
	wg.Wait()
	for i, rr := range recvs[1:] {
		if done, err := rr.Test(); !done || !errors.Is(err, ErrWorkerClosed) {
			t.Fatalf("queued receive %d after Close: done=%v err=%v, want ErrWorkerClosed", i+1, done, err)
		}
	}
	if done, _ := recvs[0].Test(); !done {
		t.Fatal("the receive that was mid-Get did not complete")
	}
	a.Close()
	for i, sr := range sends {
		if done, _ := sr.Test(); !done {
			t.Fatalf("send %d did not complete", i)
		}
	}
	if got := ops.packFin.Load(); got != msgs {
		t.Fatalf("%d source states finished, want %d, each once", got, msgs)
	}
	if got := ops.unpackFin.Load(); got != msgs {
		t.Fatalf("%d sink states finished, want %d, each once", got, msgs)
	}
	poolDrained(t, f)
}

// TestExecutorPeerFailureWithQueuedStripes: a peer declared dead while a
// striped pull has a stripe still queued fails the receive, once, with
// ErrProcFailed, and the sender is not told the receive succeeded.
func TestExecutorPeerFailureWithQueuedStripes(t *testing.T) {
	const small, large = 4096, 256 << 10
	a, b := pair(t, fabric.Config{}, Config{PullStripes: 2})
	ops := gated(t)
	dt := Generic{Ops: ops}
	// The small pull holds one puller inside its Get; the other takes the
	// large message, queues its second stripe and is held inside the first.
	r1, err := b.Recv(0, 1, exactMask, dt, make([]byte, small), small)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Recv(0, 2, exactMask, dt, make([]byte, large), large)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := a.Send(1, 1, dt, pattern(small, 1), small, 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the small pull to enter its Get", func() bool { return ops.entered.Load() == 1 })
	s2, err := a.Send(1, 2, dt, pattern(large, 2), large, 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first stripe to enter its Get", func() bool { return ops.entered.Load() == 2 })
	if got := b.Stats().PullStripeSegs.Load(); got != 2 {
		t.Fatalf("%d stripe segments, want 2", got)
	}
	b.DeclarePeerFailed(0)
	ops.open()
	if err := r2.Wait(); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("striped receive completed with %v, want ErrProcFailed", err)
	}
	if err := s2.Wait(); err == nil {
		t.Fatal("the sender was told a receive that failed had succeeded")
	}
	// The small message was whole before the verdict: it is delivered.
	if err := WaitAll(r1, s1); err != nil {
		t.Fatal(err)
	}
	if got := ops.unpackFin.Load(); got != 2 {
		t.Fatalf("%d sink states finished for 2 receives", got)
	}
	if got := b.Stats().StripeFallbacks.Load(); got != 0 {
		t.Fatalf("%d sequential re-pulls from a dead peer", got)
	}
}

// TestExecutorTCPPullsOverlap: over TCP a Get waits out a round trip, so the
// pullers of a lane are not capped at PullStripes there: every outstanding
// pull from one peer has its request on the wire at once, as it had when each
// message had a goroutine. The sender's Pack, which serves a Get, is where
// that shows.
func TestExecutorTCPPullsOverlap(t *testing.T) {
	const msgs, size = 4, 4096
	a, b := tcpPair(t, Config{PullStripes: 1})
	ops := &gateOps{packGate: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(ops.packGate) }) }
	t.Cleanup(open)
	dt := Generic{Ops: ops}
	var reqs []*Request
	for i := 0; i < msgs; i++ {
		rr, err := b.Recv(0, 1, exactMask, dt, make([]byte, size), size)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := a.Send(1, 1, dt, pattern(size, 3), size, 0, ProtoRndv)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, rr, sr)
	}
	waitFor(t, "every pull's Get to be served at once", func() bool { return ops.packing.Load() == msgs })
	open()
	if err := WaitAll(reqs...); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorPullersOutliveAMessage: a puller that finds its lane empty
// parks instead of exiting, so once the first rendezvous has run, a
// ping-pong starts no goroutine a message: each pull runs on a puller that
// is already there, its stack already grown. Close sends the parked ones
// away.
func TestExecutorPullersOutliveAMessage(t *testing.T) {
	const rounds, size = 1000, 4096
	before := goroutineIDs()
	f := fabric.NewInproc(2, fabric.Config{})
	cfg := Config{PullStripes: 2}
	a, b := NewWorker(f.NIC(0), cfg), NewWorker(f.NIC(1), cfg)
	t.Cleanup(func() { a.Close(); b.Close() })
	data, out := pattern(size, 4), make([]byte, size)
	exchange := func() {
		for _, ends := range [][2]*Worker{{a, b}, {b, a}} {
			src, dst := ends[0], ends[1]
			rr, err := dst.Recv(src.Rank(), 1, exactMask, Contig{}, out, size)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := src.Send(dst.Rank(), 1, Contig{}, data, size, 0, ProtoRndv)
			if err != nil {
				t.Fatal(err)
			}
			if err := WaitAll(rr, sr); err != nil {
				t.Fatal(err)
			}
			// A receive completes just before its puller parks. In a
			// ping-pong the next pull comes a round trip later; here it
			// could pass the puller and start a second one, which would
			// park too, so the test waits for the first.
			waitFor(t, "the puller to park", func() bool {
				dst.jobMu.Lock()
				defer dst.jobMu.Unlock()
				return dst.lanes[src.Rank()].pullers == 0
			})
		}
	}
	exchange()
	warm := pullerIDs()
	if len(warm) != 2 {
		t.Fatalf("%d pullers parked after one exchange each way, want one a worker", len(warm))
	}
	for i := 0; i < rounds; i++ {
		exchange()
	}
	if got := pullerIDs(); !slices.Equal(got, warm) {
		t.Fatalf("pullers %v after %d rendezvous ping-pongs, %v before: new ones started", got, rounds, warm)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("payload differs")
	}
	if got := b.Stats().SequentialPulls.Load(); got != rounds+1 {
		t.Fatalf("%d pulls on rank 1, want %d", got, rounds+1)
	}
	a.Close()
	b.Close()
	got := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got = newGoroutines(before); got == 0 {
			return
		}
	}
	t.Fatalf("%d goroutines left after Close", got)
}

// TestFinishErrorReachesBothEnds: when the receive side's Finish fails, the
// receive fails and the sender is told so, whichever protocol carried the
// message.
func TestFinishErrorReachesBothEnds(t *testing.T) {
	const size = 256 << 10 // the striping threshold
	for _, c := range []struct {
		name    string
		cfg     Config
		proto   Proto
		striped int64
	}{
		{"eager", Config{Reliable: true}, ProtoEager, 0},
		{"rendezvous-sequential", Config{PullStripes: 1}, ProtoRndv, 0},
		{"rendezvous-striped", Config{PullStripes: 2}, ProtoRndv, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := pair(t, fabric.Config{}, c.cfg)
			ops := &gateOps{finishErr: errors.New("free state failed")}
			dt := Generic{Ops: ops}
			rr, err := b.Recv(0, 1, exactMask, dt, make([]byte, size), size)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := a.Send(1, 1, dt, pattern(size, 8), size, 0, c.proto)
			if err != nil {
				t.Fatal(err)
			}
			if err := rr.Wait(); !errors.Is(err, ops.finishErr) {
				t.Fatalf("receive completed with %v, want the Finish error", err)
			}
			if err := sr.Wait(); err == nil {
				t.Fatal("the sender was told a receive that failed had succeeded")
			}
			if got := b.Stats().StripedPulls.Load(); got != c.striped {
				t.Fatalf("%d striped pulls, want %d", got, c.striped)
			}
		})
	}
}
