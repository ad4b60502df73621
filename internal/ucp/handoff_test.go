package ucp

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// recvCounter counts the packets a worker takes through Recv, and yields
// before each, so a sender gets to run between two packets the progress
// loop delivers. Packets a sender hands over (fabric.NIC.Handoff, which it
// passes on by embedding) do not pass it.
type recvCounter struct {
	fabric.NIC
	n atomic.Int64
}

func (c *recvCounter) Recv() (*fabric.Packet, bool) {
	runtime.Gosched()
	pkt, ok := c.NIC.Recv()
	if ok {
		c.n.Add(1)
	}
	return pkt, ok
}

// TestHandoffKeepsOrderAcrossParkedLoop: eager messages from one sender,
// all matching one tag, reach the receives posted for them in the order
// sent while delivery moves from the sender's goroutine to the progress
// loop and back. Messages to an idle receiver are handed over; one that
// finds the progress lock taken queues, and the loop parks in its unpack
// while the sender keeps sending, so those queue behind it; while the loop
// drains, the sender yields after every send and must still queue; once the
// loop is idle, messages are handed over again. Every packet is released.
func TestHandoffKeepsOrderAcrossParkedLoop(t *testing.T) {
	const idle, parked, racing = 100, 100, 100
	const total = idle + parked + racing
	f := fabric.NewInproc(2, fabric.Config{})
	rx := &recvCounter{NIC: f.NIC(1)}
	a, b := NewWorker(f.NIC(0), Config{}), NewWorker(rx, Config{})
	t.Cleanup(func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	})
	gate := gated(t)
	var got [][]byte
	var rs []*Request
	post := func(dt Datatype) {
		t.Helper()
		buf := make([]byte, 8)
		r, err := b.Recv(0, 1, exactMask, dt, buf, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, rs = append(got, buf), append(rs, r)
	}
	sent := 0
	send := func(n int, yield bool) {
		t.Helper()
		for ; n > 0; n-- {
			msg := binary.LittleEndian.AppendUint64(nil, uint64(sent))
			sr, err := a.Send(1, 1, Contig{}, msg, 8, 0, ProtoEager)
			if err == nil {
				err = sr.Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
			sent++
			if yield {
				runtime.Gosched()
			}
		}
	}
	for i := 0; i < total; i++ {
		if i == idle {
			post(Generic{Ops: gate})
		} else {
			post(Contig{})
		}
	}

	send(idle, false)
	if n := rx.n.Load(); n != 0 {
		t.Fatalf("%d of %d messages to an idle receiver went through its loop", n, idle)
	}
	b.progress.Lock() // as if another sender's packet were being delivered
	send(1, false)
	b.progress.Unlock()
	waitFor(t, "the loop to park in an unpack", func() bool { return gate.entered.Load() == 1 })
	send(parked-1, false)
	gate.open()
	send(racing, true)
	if err := WaitAll(rs...); err != nil {
		t.Fatal(err)
	}
	for i, buf := range got {
		if m := binary.LittleEndian.Uint64(buf); m != uint64(i) {
			t.Fatalf("receive %d got message %d: a handed-over message passed a queued one", i, m)
		}
	}
	if n := rx.n.Load(); n < parked {
		t.Fatalf("%d messages went through the loop, want at least the %d sent while it was parked", n, parked)
	}

	for inline := false; !inline; {
		if sent == total+50 {
			t.Fatal("no message was handed over once the loop had drained")
		}
		time.Sleep(time.Millisecond) // for the loop to come back to Recv
		before := rx.n.Load()
		post(Contig{})
		send(1, false)
		if err := rs[len(rs)-1].Wait(); err != nil {
			t.Fatal(err)
		}
		inline = rx.n.Load() == before
	}
}

// TestCloseSweepsAfterHandedOverPacket: the progress loop's sweep at Close
// waits for the progress lock, so a packet being delivered on a sender's
// goroutine when the NIC closes is in its table before the sweep, which
// gives it back. The test plays that sender: it holds the lock while Close
// runs, then delivers the first fragment of a message nobody receives.
func TestCloseSweepsAfterHandedOverPacket(t *testing.T) {
	f := fabric.NewInproc(3, fabric.Config{})
	b := NewWorker(f.NIC(1), Config{})
	if err := f.NIC(0).Send(2, fabric.Header{Kind: kindEager, Tag: 1, MsgID: 1, Total: 200}, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	pkt, _ := f.NIC(2).Recv()
	b.progress.Lock()
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", b.quitting)
	select {
	case <-closed:
		b.progress.Unlock()
		t.Fatal("Close swept the worker while a packet was being delivered")
	case <-time.After(20 * time.Millisecond):
	}
	b.deliver(pkt)
	b.progress.Unlock()
	<-closed
	poolDrained(t, f)
}

// handOffFrame is the provider frame a handed-over packet is delivered
// under; deliverFrame is the worker's per-packet handler.
var handOffFrame, deliverFrame = []byte("fabric.(*inprocNIC).handOff("), []byte("ucp.(*Worker).deliver(")

// stackHas reports whether the calling goroutine's stack has frame on it.
func stackHas(frame []byte) bool {
	buf := make([]byte, 64<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], frame)
}

// sendWatch is a NIC that counts the sends made while a worker delivers a
// packet, on whatever goroutine that runs.
type sendWatch struct {
	fabric.NIC
	nested atomic.Int64
}

func (s *sendWatch) watch() {
	if stackHas(deliverFrame) {
		s.nested.Add(1)
	}
}

func (s *sendWatch) Send(to int, hdr fabric.Header, payload ...[]byte) error {
	s.watch()
	return s.NIC.Send(to, hdr, payload...)
}

func (s *sendWatch) SendFrom(to int, hdr fabric.Header, src fabric.Source, off, n int64) (int64, error) {
	s.watch()
	return s.NIC.SendFrom(to, hdr, src, off, n)
}

// stackOps is xorOps with key 0 whose unpacks count the ones that run on a
// sender's goroutine, delivered through a handover.
type stackOps struct {
	xorOps
	handedOver atomic.Int64
}

func (o *stackOps) StartUnpack(buf any, count int64) (UnpackState, error) {
	return &stackUnpack{xorUnpack{ops: &o.xorOps, data: buf.([]byte)[:count]}, o}, nil
}

type stackUnpack struct {
	xorUnpack
	ops *stackOps
}

func (u *stackUnpack) Unpack(off int64, src []byte) error {
	if stackHas(handOffFrame) {
		u.ops.handedOver.Add(1)
	}
	return u.xorUnpack.Unpack(off, src)
}

// TestHandlersNeverSendSynchronously: nothing a worker does to deliver a
// packet sends on the wire from the delivering goroutine — a handed-over
// packet's handler runs on its sender's, and a Send there would run the
// next rank's handler on top of it. Three ranks trade eager messages
// (posted, unexpected, several fragments), rendezvous messages and an
// aborted send, plain and under Reliable with duplicating links, pings and
// checksums, so acks, duplicate answers, FINs, aborts and pongs all come up.
func TestHandlersNeverSendSynchronously(t *testing.T) {
	for _, tc := range []struct {
		name string
		fcfg fabric.Config
		cfg  Config
		plan fabric.FaultPlan
	}{
		{"plain", fabric.Config{FragSize: 1024}, Config{RndvThresh: 8 << 10}, fabric.FaultPlan{}},
		{"reliable", fabric.Config{FragSize: 1024, Checksum: true},
			Config{RndvThresh: 8 << 10, Reliable: true, Heartbeat: DetectorConfig{Period: time.Millisecond, DeadAfter: time.Hour}},
			fabric.FaultPlan{Seed: 42, Rules: []fabric.FaultRule{{Peer: -1, Action: fabric.Duplicate, Prob: 0.3}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			f := fabric.NewInproc(n, tc.fcfg)
			watches := make([]*sendWatch, n)
			ws := make([]*Worker, n)
			for i := range ws {
				watches[i] = &sendWatch{NIC: fabric.WrapFault(f.NIC(i), tc.plan)}
				ws[i] = NewWorker(watches[i], tc.cfg)
			}
			t.Cleanup(func() {
				for _, w := range ws {
					w.Close()
				}
				poolDrained(t, f)
			})
			ops := &stackOps{}
			for round := 0; round < 20; round++ {
				var reqs []*Request
				for src := range ws {
					dst := (src + 1) % n
					for k, size := range []int{100, 5000, 20000} {
						tag := Tag(round*10 + k)
						data := pattern(size, byte(src+k))
						out := make([]byte, size)
						recv := func() {
							r, err := ws[dst].Recv(src, tag, exactMask, Generic{Ops: ops}, out, int64(size))
							if err != nil {
								t.Fatal(err)
							}
							reqs = append(reqs, r)
						}
						if round%2 == 0 {
							recv() // posted, else unexpected
						}
						sr, err := ws[src].Send(dst, tag, Contig{}, data, int64(size), 0, ProtoAuto)
						if err != nil {
							t.Fatal(err)
						}
						reqs = append(reqs, sr)
						if round%2 == 1 {
							recv()
						}
					}
				}
				if err := WaitAll(reqs...); err != nil {
					t.Fatal(err)
				}
			}
			out := make([]byte, 5000)
			rr, err := ws[1].Recv(0, 999, exactMask, Contig{}, out, 5000)
			if err != nil {
				t.Fatal(err)
			}
			if sr, err := ws[0].Send(1, 999, Generic{Ops: &failPackOps{failAt: 2000}}, pattern(5000, 9), 5000, 0, ProtoEager); err == nil {
				_ = sr.Wait()
			}
			if rr.Wait() == nil {
				t.Fatal("the aborted send's receive succeeded")
			}
			time.Sleep(5 * time.Millisecond) // let pings and pongs cross
			for i, s := range watches {
				if c := s.nested.Load(); c != 0 {
					t.Errorf("rank %d sent %d frames while delivering a packet", i, c)
				}
			}
			if ops.handedOver.Load() == 0 {
				t.Error("no unpack ran on a sender's goroutine: nothing was handed over")
			}
		})
	}
}
