package ucp

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// crossProcess states an in-process NIC's link as one between separate
// processes, so the worker on it drains at Close; while held is open its
// Recv waits, as a peer's progress loop that has not been scheduled yet.
type crossProcess struct {
	fabric.NIC
	held chan struct{}
}

func newCrossProcess(nic fabric.NIC) *crossProcess { return &crossProcess{NIC: nic} }

func (c *crossProcess) Link() fabric.Link {
	l := c.NIC.Link()
	l.CrossProcess = true
	return l
}

// Handoff is declined: every packet goes through Recv, where held can stop it.
func (c *crossProcess) Handoff(*sync.Mutex, func(*fabric.Packet)) bool { return false }

func (c *crossProcess) Recv() (*fabric.Packet, bool) {
	if c.held != nil {
		<-c.held
	}
	return c.NIC.Recv()
}

// closeWithin runs a.Close and reports whether it returned within d.
func closeWithin(a *Worker, d time.Duration) (returned <-chan struct{}, ok bool) {
	done := make(chan struct{})
	go func() { a.Close(); close(done) }()
	select {
	case <-done:
		return done, true
	case <-time.After(d):
		return done, false
	}
}

// TestCloseDrainsUnackedEager pins the drain at Close on a link whose peers
// are separate processes: an unacked worker's Close returns only once the
// peer's progress loop has taken in every frame it was sent (held back
// here until the peer's loop is let go), what arrived stays receivable
// after the peer declares the closed rank dead, and Close waits no longer
// than its bound for a peer that is dead, dies meanwhile, or never answers.
func TestCloseDrainsUnackedEager(t *testing.T) {
	defer func(d time.Duration) { closeDrainBound = d }(closeDrainBound)
	// Eager messages of one, three and zero fragments.
	msgs := [][]byte{pattern(64, 1), pattern(2500, 2), {}}
	world := func(t *testing.T) (a, b *Worker, bn *crossProcess) {
		f := fabric.NewInproc(2, fabric.Config{FragSize: 1024})
		bn = newCrossProcess(f.NIC(1))
		bn.held = make(chan struct{})
		a, b = NewWorker(newCrossProcess(f.NIC(0)), Config{}), NewWorker(bn, Config{})
		t.Cleanup(func() {
			select {
			case <-bn.held:
			default:
				close(bn.held)
			}
			a.Close()
			b.Close()
			poolDrained(t, f)
		})
		for i, m := range msgs {
			sr, err := a.Send(1, Tag(i), Contig{}, m, int64(len(m)), 0, ProtoEager)
			if err != nil {
				t.Fatal(err)
			}
			if err := sr.WaitTimeout(time.Second); err != nil {
				t.Fatalf("an unacked eager send did not complete locally: %v", err)
			}
		}
		return a, b, bn
	}

	t.Run("drained", func(t *testing.T) {
		closeDrainBound = time.Minute
		a, b, bn := world(t)
		done, ok := closeWithin(a, 100*time.Millisecond)
		if ok {
			t.Fatal("Close returned while the peer's loop had taken in nothing")
		}
		close(bn.held)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return once the peer's loop ran")
		}
		if got := b.QueueDepths().Unexpected; got != len(msgs) {
			t.Fatalf("Close returned with %d of %d messages taken in by the peer", got, len(msgs))
		}
		b.DeclarePeerFailed(0)
		for i, m := range msgs {
			out := make([]byte, len(m))
			rr, err := b.Recv(0, Tag(i), exactMask, Contig{}, out, int64(len(out)))
			if err != nil {
				t.Fatalf("message %d after the sender was declared dead: %v", i, err)
			}
			if err := rr.WaitTimeout(time.Second); err != nil || !bytes.Equal(out, m) {
				t.Fatalf("message %d after the sender was declared dead: %v, intact %v", i, err, bytes.Equal(out, m))
			}
		}
	})

	t.Run("peer dead", func(t *testing.T) {
		closeDrainBound = time.Minute
		a, _, _ := world(t)
		a.DeclarePeerFailed(1)
		if _, ok := closeWithin(a, time.Second); !ok {
			t.Fatal("Close waited for a dead peer's answer")
		}
	})

	t.Run("peer dies meanwhile", func(t *testing.T) {
		closeDrainBound = time.Minute
		a, _, _ := world(t)
		done, ok := closeWithin(a, 50*time.Millisecond)
		if ok {
			t.Fatal("Close returned without an answer from a live peer")
		}
		a.DeclarePeerFailed(1)
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("Close kept waiting once the peer was declared dead")
		}
	})

	t.Run("no answer", func(t *testing.T) {
		closeDrainBound = 200 * time.Millisecond
		a, _, _ := world(t)
		start := time.Now()
		if _, ok := closeWithin(a, 5*time.Second); !ok {
			t.Fatal("Close outlived its bound by seconds")
		}
		if d := time.Since(start); d < closeDrainBound {
			t.Fatalf("Close returned after %v without an answer, before its %v bound", d, closeDrainBound)
		}
	})
}

// TestRTSNotRetransmittedDuringPull: over TCP, with the retransmit timer at
// 1 ms and a receive datatype slow enough that the pull takes about 20 ms,
// the reliable RTS is not resent once the receiver's first Get has been
// served — that read is the RTS's acknowledgement. The first Get must be
// served within the first timer period, which a loaded machine can miss, so
// the exchange is retried twice before its retransmissions count.
func TestRTSNotRetransmittedDuringPull(t *testing.T) {
	a, b := tcpPair(t, Config{Reliable: true, RexmitBase: time.Millisecond})
	const size = 240 << 10 // fifteen 16 KiB response frames (not striped: below 256 KiB)
	data := pattern(size, 9)
	for attempt := 0; attempt < 3; attempt++ {
		before := a.Stats().Retransmits.Load()
		out := make([]byte, size)
		ops := &slowUnpackOps{per: 20 * time.Millisecond / (size >> 14)}
		rr, err := b.Recv(0, Tag(attempt), exactMask, Generic{Ops: ops}, out, size)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		sr, err := a.Send(1, Tag(attempt), Contig{}, data, size, 0, ProtoRndv)
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(sr, rr); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		if !bytes.Equal(out, data) {
			t.Fatal("payload corrupted")
		}
		if took < 15*time.Millisecond {
			t.Fatalf("the pull took %v: the sink is not slow enough to outlast the timer", took)
		}
		n := a.Stats().Retransmits.Load() - before
		if n == 0 {
			return
		}
		t.Logf("attempt %d: %d retransmits during a %v pull", attempt, n, took)
	}
	t.Fatal("the RTS was retransmitted while the receiver was pulling, three times in a row")
}

// slowUnpackOps unpacks like xorOps with key 0 after sleeping per 16 KiB.
type slowUnpackOps struct {
	xorOps
	per time.Duration
}

func (o *slowUnpackOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return &slowUnpack{xorUnpack: xorUnpack{ops: &o.xorOps, data: buf.([]byte)[:count]}, per: o.per}, nil
}

type slowUnpack struct {
	xorUnpack
	per time.Duration
}

func (u *slowUnpack) Unpack(off int64, src []byte) error {
	time.Sleep(u.per * time.Duration(len(src)) / (16 << 10))
	return u.xorUnpack.Unpack(off, src)
}
