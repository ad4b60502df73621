package ucp

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// sendGate wraps a NIC and parks every outbound packet park selects until
// release is closed, simulating transport backpressure (a full
// shared-memory ring, a full socket buffer). blocked is closed when the
// first send parks.
type sendGate struct {
	fabric.NIC
	park    func(fabric.Header) bool
	release chan struct{}
	blocked chan struct{}
	once    sync.Once
}

func newGate(nic fabric.NIC, park func(fabric.Header) bool) *sendGate {
	return &sendGate{NIC: nic, park: park, release: make(chan struct{}), blocked: make(chan struct{})}
}

func (g *sendGate) Send(to int, hdr fabric.Header, payload ...[]byte) error {
	if g.park(hdr) {
		g.once.Do(func() { close(g.blocked) })
		<-g.release
	}
	return g.NIC.Send(to, hdr, payload...)
}

// awaitParked fails the test unless a send parks in g within five seconds.
func (g *sendGate) awaitParked(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.blocked:
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s parked in the gate", what)
	}
}

// deliveredPastGate sends one eager message from a to b, where b's NIC is a
// gate holding a parked send, and fails the test unless b's progress loop
// still delivers it intact.
func deliveredPastGate(t *testing.T, a, b *Worker, tag Tag) {
	t.Helper()
	data := pattern(4096, byte(tag))
	out := make([]byte, len(data))
	rr, err := b.Recv(a.Rank(), tag, exactMask, Contig{}, out, int64(len(out)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(b.Rank(), tag, Contig{}, data, int64(len(data)), 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	if err := rr.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("receive behind a parked send did not complete: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("payload behind a parked send corrupted")
	}
}

// TestAckBackpressureDoesNotStallProgress pins the ack-pump contract: a
// wire send of an eager ack that blocks on transport backpressure must
// not stall the receiver's progress loop. Before acks were queued onto
// a dedicated pump goroutine, the inline ack send wedged the progress
// loop, the inbox filled, and at cross-process scale every rank ended
// up waiting to push an ack only its equally-stalled peer could drain —
// a distributed deadlock that exhausted retransmission budgets.
func TestAckBackpressureDoesNotStallProgress(t *testing.T) {
	cfg := Config{Reliable: true}
	f := fabric.NewInproc(2, fabric.Config{})
	gate := newGate(f.NIC(1), func(h fabric.Header) bool { return h.Kind == kindEagerAck })
	a := NewWorker(f.NIC(0), cfg)
	b := NewWorker(gate, cfg)
	defer a.Close()
	// NOT deferred for b: Close waits out the pump, which is parked in
	// the gate until release below.

	data := pattern(4096, 7)
	out := make([]byte, len(data))
	rr1, err := b.Recv(0, 1, exactMask, Contig{}, out, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	sr1, err := a.Send(1, 1, Contig{}, data, int64(len(data)), 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr1.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("first receive: %v", err)
	}
	gate.awaitParked(t, "ack")

	// The receiver's ack to message 1 is wedged on "backpressure". The
	// progress loop must still deliver message 2.
	deliveredPastGate(t, a, b, 2)

	// Releasing the backpressure lets the queued acks drain and the
	// sender's reliable completions land.
	close(gate.release)
	if err := sr1.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("first send after ack release: %v", err)
	}
	b.Close()
}

// TestPongBackpressureDoesNotStallProgress: a pong whose wire send blocks
// must not stall the progress loop that received the ping, any more than an
// ack may. b never pings (hour-long period), so every send of b's that is
// not data or an answer to data is a pong.
func TestPongBackpressureDoesNotStallProgress(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{})
	gate := newGate(f.NIC(1), func(h fabric.Header) bool {
		switch h.Kind {
		case kindEager, kindRTS, kindFIN, kindAbort, kindEagerAck:
			return false
		}
		return true
	})
	a := NewWorker(f.NIC(0), Config{Heartbeat: DetectorConfig{Period: time.Millisecond, DeadAfter: time.Hour}})
	b := NewWorker(gate, Config{Heartbeat: DetectorConfig{Period: time.Hour}})
	defer a.Close()
	gate.awaitParked(t, "pong")
	deliveredPastGate(t, a, b, 1)
	close(gate.release)
	b.Close()
}

// TestDupRTSFinDoesNotStallProgress: the FIN that answers a duplicate RTS
// (the first FIN was lost, so the sender retransmitted) leaves through the
// ack pump, so a FIN blocked on backpressure does not stall the progress
// loop that received the RTS.
func TestDupRTSFinDoesNotStallProgress(t *testing.T) {
	cfg := Config{Reliable: true}
	f := fabric.NewInproc(2, fabric.Config{})
	var armed atomic.Bool
	gate := newGate(f.NIC(1), func(h fabric.Header) bool { return armed.Load() && h.Kind == kindFIN })
	a := NewWorker(f.NIC(0), cfg)
	b := NewWorker(gate, cfg)
	defer a.Close()

	data := pattern(64<<10, 3)
	out := make([]byte, len(data))
	rr, err := b.Recv(0, 1, exactMask, Contig{}, out, int64(len(out)))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := a.Send(1, 1, Contig{}, data, int64(len(data)), 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}

	// The same RTS again, as a retransmission after a lost FIN: b answers
	// it with a fresh FIN, which the gate parks.
	armed.Store(true)
	rts := fabric.Header{Kind: kindRTS, Tag: 1, MsgID: sr.msgID, Total: int64(len(data))}
	if err := f.NIC(0).Send(1, rts); err != nil {
		t.Fatal(err)
	}
	gate.awaitParked(t, "FIN")
	deliveredPastGate(t, a, b, 2)
	close(gate.release)
	b.Close()
}

// goroutineIDs lists the ids of the goroutines alive now.
func goroutineIDs() []string {
	buf := make([]byte, 1<<20)
	var ids []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		ids = append(ids, strings.Fields(g)[1]) // "goroutine <id> [<state>]:"
	}
	return ids
}

// newGoroutines counts the goroutines alive now that were not in before.
func newGoroutines(before []string) int {
	n := 0
	for _, id := range goroutineIDs() {
		if !slices.Contains(before, id) {
			n++
		}
	}
	return n
}

// pullerIDs lists the goroutines inside a puller, parked or not.
func pullerIDs() []string {
	buf := make([]byte, 1<<20)
	var ids []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, ".(*Worker).puller(") {
			ids = append(ids, strings.Fields(g)[1])
		}
	}
	slices.Sort(ids)
	return ids
}

// TestWorkerIdleGoroutines pins what a worker keeps running once traffic
// has stopped: the progress loop, plus the janitor and the ack pump under
// Reliable, plus the pullers parked after a rendezvous, never more than
// PullStripes. Liveness detection parks none (its tick is a timer), a
// worker that never acks starts no pump, and one that only ran eager
// messages started no puller.
func TestWorkerIdleGoroutines(t *testing.T) {
	hb := DetectorConfig{Period: time.Hour}
	for _, tc := range []struct {
		name  string
		cfg   Config
		proto Proto
		want  int
	}{
		{"plain", Config{}, ProtoAuto, 1},
		{"Heartbeat", Config{Heartbeat: hb}, ProtoAuto, 1},
		{"Reliable", Config{Reliable: true}, ProtoAuto, 3},
		{"Reliable+Heartbeat", Config{Reliable: true, Heartbeat: hb}, ProtoAuto, 3},
		{"rndv", Config{}, ProtoRndv, 2},
		{"rndv-PullStripes1", Config{PullStripes: 1}, ProtoRndv, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goroutineIDs()
			a, b := pair(t, fabric.Config{}, tc.cfg)
			var reqs []*Request
			for _, ends := range [][2]*Worker{{a, b}, {b, a}} {
				src, dst := ends[0], ends[1]
				rr, err := dst.Recv(src.Rank(), 1, exactMask, Contig{}, make([]byte, 64), 64)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := src.Send(dst.Rank(), 1, Contig{}, pattern(64, 1), 64, 0, tc.proto)
				if err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, rr, sr)
			}
			if err := WaitAll(reqs...); err != nil {
				t.Fatal(err)
			}
			// The goroutines started since the workers were not there yet:
			// theirs. Polled, so probes still on their way out are not
			// counted.
			got := 0
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if got = newGoroutines(before); got == 2*tc.want {
					return
				}
			}
			t.Fatalf("%d goroutines a worker after one exchange, want %d", got/2, tc.want)
		})
	}
	// Over TCP a lane's pullers are not capped (TestExecutorTCPPullsOverlap):
	// a burst of outstanding pulls runs one puller each, and all but
	// PullStripes of them exit once the lane is empty.
	t.Run("tcp-burst", func(t *testing.T) {
		const msgs, size, stripes = 16, 4096, 2
		base := len(pullerIDs())
		a, b := tcpPair(t, Config{PullStripes: stripes})
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
		if got := len(pullerIDs()) - base; got < msgs {
			t.Fatalf("%d pullers for %d outstanding pulls", got, msgs)
		}
		open()
		if err := WaitAll(reqs...); err != nil {
			t.Fatal(err)
		}
		got := 0
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if got = len(pullerIDs()) - base; got <= stripes {
				return
			}
		}
		t.Fatalf("%d pullers parked after the burst, PullStripes %d", got, stripes)
	})
}
