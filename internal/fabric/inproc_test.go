package fabric

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// handoffSink is a consumer shaped like ucp's worker: one handler, run
// under one progress lock, by its own loop (consume) or by a sender the
// NIC hands a packet to. Its fields are guarded by mu.
type handoffSink struct {
	mu     sync.Mutex
	inLoop bool     // the consumer's loop is the one handling
	ids    []uint64 // MsgIDs, in the order handled
	looped []bool   // per handled packet: by the loop, not by a sender
}

func (s *handoffSink) handle(p *Packet) {
	s.ids = append(s.ids, p.Hdr.MsgID)
	s.looped = append(s.looped, s.inLoop)
	p.Release()
}

// handled returns how many packets have been handled so far.
func (s *handoffSink) handled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// consume offers the sink to nic and runs its loop until the NIC closes:
// Recv, then, under mu, hold (if set) and the handler. It yields before
// each Recv, so a sender gets to run between two packets the loop handles.
func (s *handoffSink) consume(t *testing.T, nic NIC, hold func(*Packet)) <-chan struct{} {
	t.Helper()
	if !nic.Handoff(&s.mu, s.handle) {
		t.Fatal("the in-process NIC declined a Handoff")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			runtime.Gosched()
			pkt, ok := nic.Recv()
			if !ok {
				return
			}
			s.mu.Lock()
			if hold != nil {
				hold(pkt)
			}
			s.inLoop = true
			s.handle(pkt)
			s.inLoop = false
			s.mu.Unlock()
		}
	}()
	return done
}

// TestInprocHandoffKeepsSenderOrder: one sender's packets are handled in
// the order sent while delivery moves from the sender's goroutine to the
// consumer's loop and back. Packets to an idle consumer are handed over; one
// that finds the progress lock taken queues, and the loop parks in its
// handler while the sender keeps sending, so those queue behind it; while
// the loop drains, the sender yields after every send and must still queue;
// once the loop is back in Recv, packets are handed over again.
func TestInprocHandoffKeepsSenderOrder(t *testing.T) {
	const idle, parked, racing, after = 50, 50, 100, 10
	const total = idle + parked + racing
	f := NewInproc(2, Config{})
	var s handoffSink
	entered, release := make(chan struct{}), make(chan struct{})
	done := s.consume(t, f.NIC(1), func(p *Packet) {
		if p.Hdr.MsgID == idle {
			close(entered)
			<-release
		}
	})
	send := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := f.NIC(0).Send(1, Header{MsgID: uint64(i)}); err != nil {
				t.Fatal(err)
			}
			runtime.Gosched()
		}
	}
	send(0, idle)
	s.mu.Lock() // as if another sender's packet were being handled
	send(idle, idle+1)
	s.mu.Unlock()
	<-entered
	send(idle+1, idle+parked)
	close(release)
	send(idle+parked, total)
	for s.handled() < total {
		runtime.Gosched()
	}
	for f.nics[1].queued.Load() != 0 { // the loop is back in Recv
		runtime.Gosched()
	}
	send(total, total+after)
	f.Close()
	<-done

	if len(s.ids) != total+after {
		t.Fatalf("%d packets handled, want %d", len(s.ids), total+after)
	}
	for i, id := range s.ids {
		if id != uint64(i) {
			t.Fatalf("packet %d handled at position %d: order lost (%v)", id, i, s.ids)
		}
	}
	for i, looped := range s.looped {
		want := i >= idle && i < idle+parked
		if i >= idle+parked && i < total {
			continue // either, as long as in order
		}
		if looped != want {
			t.Errorf("packet %d handled by the loop: %v, want %v", i, looped, want)
		}
	}
	if n := f.PoolOutstanding(); n != 0 {
		t.Fatalf("%d wire packets never released", n)
	}
}

// TestInprocHandoffSkipsSelfSends: a packet a NIC sends itself queues even
// for an idle consumer — run inline, its handler would be on the stack of
// the very call that sent it — while one from a peer is handed over.
func TestInprocHandoffSkipsSelfSends(t *testing.T) {
	f := NewInproc(2, Config{})
	var s handoffSink
	done := s.consume(t, f.NIC(0), nil)
	if err := f.NIC(1).Send(0, Header{MsgID: 1}); err != nil {
		t.Fatal(err)
	}
	if s.handled() != 1 {
		t.Fatal("a packet for an idle consumer was not handled before its Send returned")
	}
	if err := f.NIC(0).Send(0, Header{MsgID: 2}); err != nil {
		t.Fatal(err)
	}
	for s.handled() < 2 {
		runtime.Gosched()
	}
	f.Close()
	<-done
	if s.looped[0] || !s.looped[1] {
		t.Fatalf("handled by the loop: peer's %v, self-send's %v; want false, true", s.looped[0], s.looped[1])
	}
}

// TestInprocHandoffAfterClose: a packet for a closed NIC is given back with
// ErrClosed, never handed to its consumer.
func TestInprocHandoffAfterClose(t *testing.T) {
	f := NewInproc(2, Config{})
	var s handoffSink
	f.NIC(1).Handoff(&s.mu, s.handle)
	f.NIC(1).Close()
	if err := f.NIC(0).Send(1, Header{MsgID: 1}, []byte("late")); err != ErrClosed {
		t.Fatalf("Send to a closed NIC = %v, want ErrClosed", err)
	}
	if s.handled() != 0 {
		t.Fatal("a packet for a closed NIC reached its consumer")
	}
	if n := f.PoolOutstanding(); n != 0 {
		t.Fatalf("%d wire packets never released", n)
	}
}

func TestInprocSendRecv(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	a, b := f.NIC(0), f.NIC(1)

	payload := make([]byte, 1000)
	fillPattern(payload, 1)
	hdr := Header{Kind: 3, Tag: 42, MsgID: 7, Total: 1000}
	if err := a.Send(1, hdr, payload); err != nil {
		t.Fatal(err)
	}
	pkt, ok := b.Recv()
	if !ok {
		t.Fatal("Recv failed")
	}
	defer pkt.Release()
	if pkt.From != 0 || pkt.Hdr != hdr {
		t.Fatalf("got From=%d Hdr=%+v", pkt.From, pkt.Hdr)
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestInprocGatherSend(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	p1 := []byte("hello, ")
	p2 := []byte("world")
	if err := f.NIC(0).Send(1, Header{}, p1, p2); err != nil {
		t.Fatal(err)
	}
	pkt, _ := f.NIC(1).Recv()
	defer pkt.Release()
	if string(pkt.Payload) != "hello, world" {
		t.Fatalf("gather payload = %q", pkt.Payload)
	}
}

func TestInprocSendFrom(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	data := make([]byte, 500)
	fillPattern(data, 2)
	n, err := f.NIC(0).SendFrom(1, Header{}, Bytes(data), 100, 200)
	if err != nil || n != 200 {
		t.Fatalf("SendFrom = %d, %v", n, err)
	}
	pkt, _ := f.NIC(1).Recv()
	defer pkt.Release()
	if !bytes.Equal(pkt.Payload, data[100:300]) {
		t.Fatal("SendFrom slice mismatch")
	}
}

func TestInprocPerLinkFIFO(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := f.NIC(0).Send(1, Header{MsgID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		pkt, ok := f.NIC(1).Recv()
		if !ok {
			t.Fatal("early close")
		}
		if pkt.Hdr.MsgID != uint64(i) {
			t.Fatalf("packet %d arrived with MsgID %d: FIFO violated", i, pkt.Hdr.MsgID)
		}
		pkt.Release()
	}
}

func TestInprocRegisterGet(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	data := make([]byte, 100000)
	fillPattern(data, 3)
	key := f.NIC(0).Register(Bytes(data))
	out := make([]byte, 100000)
	if err := f.NIC(1).Get(0, key, 0, Bytes(out), 0, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("Get content mismatch")
	}
	// Partial, offset Get.
	out2 := make([]byte, 500)
	if err := f.NIC(1).Get(0, key, 1234, Bytes(out2), 0, 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2, data[1234:1734]) {
		t.Fatal("partial Get mismatch")
	}
	f.NIC(0).Deregister(key)
	if err := f.NIC(1).Get(0, key, 0, Bytes(out2), 0, 10); err != ErrBadKey {
		t.Fatalf("Get after Deregister err = %v; want ErrBadKey", err)
	}
}

func TestInprocGetIovToIov(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	src, all := makeIov(t, 100, 3, 57, 1000)
	dst, _ := makeIov(t, 60, 1100)
	key := f.NIC(0).Register(src)
	if err := f.NIC(1).Get(0, key, 0, dst, 0, src.Size()); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(all))
	if _, err := dst.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, all) {
		t.Fatal("iov-to-iov Get mismatch")
	}
}

func TestInprocCloseUnblocksRecv(t *testing.T) {
	f := NewInproc(1, Config{})
	nic := f.NIC(0)
	done := make(chan bool)
	go func() {
		_, ok := nic.Recv()
		done <- ok
	}()
	nic.Close()
	if ok := <-done; ok {
		t.Fatal("Recv should report !ok after Close")
	}
	if err := nic.Send(0, Header{}); err != ErrClosed {
		t.Fatalf("Send to closed NIC err = %v; want ErrClosed", err)
	}
}

func TestInprocConcurrentSenders(t *testing.T) {
	f := NewInproc(3, Config{})
	defer f.Close()
	const per = 100
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			payload := make([]byte, 64)
			for i := 0; i < per; i++ {
				if err := f.NIC(src).Send(2, Header{Tag: uint64(src), MsgID: uint64(i)}, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	seen := map[uint64]uint64{}
	for i := 0; i < 2*per; i++ {
		pkt, ok := f.NIC(2).Recv()
		if !ok {
			t.Fatal("early close")
		}
		// Per-source FIFO must hold even with interleaving.
		if pkt.Hdr.MsgID != seen[pkt.Hdr.Tag] {
			t.Fatalf("source %d: got MsgID %d, want %d", pkt.Hdr.Tag, pkt.Hdr.MsgID, seen[pkt.Hdr.Tag])
		}
		seen[pkt.Hdr.Tag]++
		pkt.Release()
	}
	wg.Wait()
}

func TestInprocLargeSingleFragmentRejected(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	big := make([]byte, MaxFragSize+1)
	if err := f.NIC(0).Send(1, Header{}, big); err == nil {
		t.Fatal("oversized fragment should be rejected")
	}
}
