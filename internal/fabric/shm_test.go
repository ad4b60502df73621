//go:build linux || darwin

package fabric

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"mpicd/internal/obs"
)

// shmMesh brings up an n-rank SHM fabric in a per-test session directory.
// Both endpoints live in this process, which is exactly how the unit
// tests want it: every cross-"process" path (rings, windows, sockets)
// still crosses real mmap'd files and unix sockets.
func shmMesh(t *testing.T, n int, cfg Config) []*SHM {
	t.Helper()
	dir := t.TempDir()
	nics := make([]*SHM, n)
	for i := range nics {
		nic, err := NewSHM(i, n, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = nic
	}
	t.Cleanup(func() {
		for _, nic := range nics {
			nic.Close()
		}
	})
	return nics
}

// waitRing drives traffic until the pair's ring handshake completes and
// frames flow through shared memory.
func waitRing(t *testing.T, from, to *SHM, dst int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for from.ringSends.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ring handshake never completed")
		}
		if err := from.Send(dst, Header{Kind: 5, Tag: 1, Total: 1}, []byte{0}); err != nil {
			t.Fatal(err)
		}
		pkt, ok := to.Recv()
		if !ok {
			t.Fatal("recv failed during ring warmup")
		}
		pkt.Release()
	}
}

func TestSHMSendRecvSpillThenRing(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	payload := make([]byte, 3000)
	fillPattern(payload, 4)
	// First send spills (handshake still in flight) but must deliver.
	hdr := Header{Kind: 5, Tag: 99, MsgID: 1, Total: 3000, Aux0: -7, Aux1: 12345}
	if err := nics[0].Send(1, hdr, payload); err != nil {
		t.Fatal(err)
	}
	pkt, ok := nics[1].Recv()
	if !ok {
		t.Fatal("Recv failed")
	}
	if pkt.From != 0 || pkt.Hdr != hdr || !bytes.Equal(pkt.Payload, payload) {
		t.Fatalf("spilled frame mismatch: From=%d %+v", pkt.From, pkt.Hdr)
	}
	pkt.Release()
	// Drive until the ring engages, then verify a frame crossing it.
	waitRing(t, nics[0], nics[1], 1)
	before := nics[0].ringSends.Load()
	if err := nics[0].Send(1, hdr, payload); err != nil {
		t.Fatal(err)
	}
	pkt, ok = nics[1].Recv()
	if !ok || pkt.From != 0 || pkt.Hdr != hdr || !bytes.Equal(pkt.Payload, payload) {
		t.Fatal("ring frame mismatch")
	}
	pkt.Release()
	if nics[0].ringSends.Load() != before+1 {
		t.Fatalf("frame did not cross the ring (sends %d -> %d)", before, nics[0].ringSends.Load())
	}
}

// TestSHMEagerOrderingAcrossSwitch floods sequenced frames through the
// socket→ring handoff; the switch protocol must keep the eager class in
// order even while the transition happens mid-stream.
func TestSHMEagerOrderingAcrossSwitch(t *testing.T) {
	nics := shmMesh(t, 2, Config{RingBytes: 4096})
	const msgs = 2000
	errc := make(chan error, 1)
	go func() {
		body := make([]byte, 64)
		for i := 0; i < msgs; i++ {
			fillPattern(body, byte(i))
			if err := nics[0].Send(1, Header{Kind: 5, Tag: uint64(i), Total: 64}, body); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	want := make([]byte, 64)
	for i := 0; i < msgs; i++ {
		pkt, ok := nics[1].Recv()
		if !ok {
			t.Fatalf("recv %d failed", i)
		}
		if pkt.Hdr.Tag != uint64(i) {
			t.Fatalf("eager class reordered: frame %d carries tag %d (ring sends %d, spills %d)",
				i, pkt.Hdr.Tag, nics[0].ringSends.Load(), nics[0].ringSpills.Load())
		}
		fillPattern(want, byte(i))
		if !bytes.Equal(pkt.Payload, want) {
			t.Fatalf("frame %d corrupted", i)
		}
		pkt.Release()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if nics[0].ringSends.Load() == 0 {
		t.Fatal("stream never switched to the ring")
	}
}

// TestSHMRingBackpressure uses a tiny ring so the producer repeatedly
// fills it (exercising wraparound and full-ring blocking) while the
// consumer drains concurrently.
func TestSHMRingBackpressure(t *testing.T) {
	nics := shmMesh(t, 2, Config{RingBytes: 1024})
	waitRing(t, nics[0], nics[1], 1)
	const msgs = 3000
	errc := make(chan error, 1)
	go func() {
		body := make([]byte, 120)
		for i := 0; i < msgs; i++ {
			fillPattern(body, byte(i))
			if err := nics[0].Send(1, Header{Kind: 5, Tag: uint64(i), Total: 120}, body); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	want := make([]byte, 120)
	for i := 0; i < msgs; i++ {
		pkt, ok := nics[1].Recv()
		if !ok {
			t.Fatalf("recv %d failed", i)
		}
		if pkt.Hdr.Tag != uint64(i) || len(pkt.Payload) != 120 {
			t.Fatalf("frame %d: tag %d len %d", i, pkt.Hdr.Tag, len(pkt.Payload))
		}
		fillPattern(want, byte(i))
		if !bytes.Equal(pkt.Payload, want) {
			t.Fatalf("frame %d corrupted across ring wrap", i)
		}
		pkt.Release()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestSHMSendFromRingPack(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	waitRing(t, nics[0], nics[1], 1)
	src, all := makeIov(t, 7, 1000, 13)
	before := nics[0].ringSends.Load()
	if n, err := nics[0].SendFrom(1, Header{Total: src.Size()}, src, 0, src.Size()); err != nil || n != src.Size() {
		t.Fatalf("SendFrom = %d, %v", n, err)
	}
	pkt, _ := nics[1].Recv()
	if !bytes.Equal(pkt.Payload, all) {
		t.Fatal("iov pack into ring mismatch")
	}
	pkt.Release()
	if nics[0].ringSends.Load() != before+1 {
		t.Fatal("SendFrom did not pack into the ring")
	}
}

func TestSHMFragmentedMessageSpills(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	waitRing(t, nics[0], nics[1], 1)
	// A fragment that is part of a larger message (payload < Total) must
	// use the socket regardless of ring state.
	body := make([]byte, 100)
	if err := nics[0].Send(1, Header{Kind: 5, Offset: 0, Total: 4000}, body); err != nil {
		t.Fatal(err)
	}
	if err := nics[0].Send(1, Header{Kind: 5, Offset: 100, Total: 4000}, body); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		pkt, ok := nics[1].Recv()
		if !ok {
			t.Fatal("fragment lost")
		}
		pkt.Release()
	}
}

func TestSHMSmallGetSocketPath(t *testing.T) {
	nics := shmMesh(t, 2, Config{FragSize: 1024})
	data := make([]byte, 10000) // below winThresh: socket response frames
	fillPattern(data, 8)
	key := nics[0].Register(Bytes(data))
	out := make([]byte, len(data))
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("SHM small Get mismatch")
	}
	if nics[1].winPulls.Load() != 0 {
		t.Fatal("small Get used the window path")
	}
}

func TestSHMWindowedGet(t *testing.T) {
	// 16 KiB window → 8 KiB halves → a 300 KiB pull crosses ~38 chunks,
	// exercising half alternation and the ack pipeline.
	nics := shmMesh(t, 2, Config{WinBytes: 16 << 10})
	data := make([]byte, 300<<10)
	fillPattern(data, 9)
	key := nics[0].Register(Bytes(data))
	out := make([]byte, len(data))
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("windowed Get mismatch")
	}
	if nics[1].winPulls.Load() != 1 {
		t.Fatalf("winPulls = %d, want 1", nics[1].winPulls.Load())
	}
	// Offset pull into a shifted sink region, reusing the same window.
	out2 := make([]byte, 80<<10)
	if err := nics[1].Get(0, key, 100<<10, Bytes(out2), 8<<10, 72<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2[8<<10:], data[100<<10:172<<10]) {
		t.Fatal("offset windowed Get mismatch")
	}
}

func TestSHMWindowedGetConcurrent(t *testing.T) {
	nics := shmMesh(t, 2, Config{WinBytes: 32 << 10})
	data := make([]byte, 512<<10)
	fillPattern(data, 11)
	key := nics[0].Register(Bytes(data))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	outs := make([][]byte, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = make([]byte, 128<<10)
			errs[i] = nics[1].Get(0, key, int64(i)*(128<<10), Bytes(outs[i]), 0, 128<<10)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], data[i*(128<<10):(i+1)*(128<<10)]) {
			t.Fatalf("concurrent windowed get %d mismatch", i)
		}
	}
}

func TestSHMGetBadKey(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	out := make([]byte, 256<<10)
	if err := nics[1].Get(0, 999, 0, Bytes(out), 0, int64(len(out))); err == nil {
		t.Fatal("windowed Get with bad key should fail")
	}
}

func TestSHMThreeRankMesh(t *testing.T) {
	nics := shmMesh(t, 3, Config{})
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			hdr := Header{Tag: uint64(src*10 + dst), Total: 1}
			if err := nics[src].Send(dst, hdr, []byte{byte(src)}); err != nil {
				t.Fatalf("send %d->%d: %v", src, dst, err)
			}
		}
	}
	for dst := 0; dst < 3; dst++ {
		got := map[uint64]bool{}
		for i := 0; i < 2; i++ {
			pkt, ok := nics[dst].Recv()
			if !ok {
				t.Fatal("early close")
			}
			if int(pkt.Payload[0]) != pkt.From {
				t.Fatal("payload/source mismatch")
			}
			got[pkt.Hdr.Tag] = true
			pkt.Release()
		}
		if len(got) != 2 {
			t.Fatalf("rank %d received %d distinct messages", dst, len(got))
		}
	}
}

// TestSHMPoolQuiesce asserts no wire buffers leak once traffic drains —
// the ring poller and spill paths share the stream's counting pool.
func TestSHMPoolQuiesce(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	waitRing(t, nics[0], nics[1], 1)
	body := make([]byte, 500)
	for i := 0; i < 200; i++ {
		if err := nics[0].Send(1, Header{Kind: 5, Total: 500}, body); err != nil {
			t.Fatal(err)
		}
		pkt, ok := nics[1].Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		pkt.Release()
	}
	for _, nic := range nics {
		if n := nic.PoolOutstanding(); n != 0 {
			t.Fatalf("rank %d leaks %d pool buffers", nic.Rank(), n)
		}
	}
}

// TestSHMDeclaredDownFailsFirstContactFast pins the socket-plane half of
// SHM.DeclareRankDown: a rank declared dead by pure silence — its
// provider never came up, so there was never a link to break — must fail
// a first-contact send fast instead of burning the whole dial window
// (the verdict used to stall only the shared-memory channels). ReviveRank
// restores the patient first dial a booting replacement needs.
func TestSHMDeclaredDownFailsFirstContactFast(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DialTimeout: 2 * time.Second}
	a, err := NewSHM(0, 2, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	hdr := Header{Kind: 5, Tag: 1, Total: 1}

	a.DeclareRankDown(1)
	start := time.Now()
	err = a.Send(1, hdr, []byte{0})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send toward a declared-down rank = %v, want ErrLinkDown", err)
	}
	if d := time.Since(start); d > cfg.DialTimeout/4 {
		t.Fatalf("send toward a declared-down rank took %v of a %v dial window", d, cfg.DialTimeout)
	}

	// Revived: the same send now waits for the replacement to boot.
	a.ReviveRank(1)
	sent := make(chan error, 1)
	go func() { sent <- a.Send(1, hdr, []byte{7}) }()
	select {
	case err := <-sent:
		t.Fatalf("send toward a revived, still-booting rank returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	b, err := NewSHM(1, 2, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := <-sent; err != nil {
		t.Fatalf("patient first dial after ReviveRank: %v", err)
	}
	pkt, ok := b.Recv()
	if !ok || pkt.From != 0 || pkt.Payload[0] != 7 {
		t.Fatalf("delivery after revival: ok=%v pkt=%+v", ok, pkt)
	}
	pkt.Release()
}

// TestSHMRingHandshakePeerDeath kills the consumer side of the eager
// ring inside the handshake window — after kindRingOpen goes out, before
// the kindRingSwitch marker ever does — and requires the producer to
// (a) stay off the ring, (b) fail fast once the death verdict lands, and
// (c) tear down leak-free: no openRing goroutine parked forever, no dial
// campaign outliving the world, no mapped segment left registered.
func TestSHMRingHandshakePeerDeath(t *testing.T) {
	snap := obs.TakeLeakSnapshot()
	cfg := Config{DialTimeout: 300 * time.Millisecond}

	// Window entry 1: the peer is dead before the open is even sendable,
	// so the handshake can never receive its ack.
	t.Run("open-unacked", func(t *testing.T) {
		dir := t.TempDir()
		a, err := NewSHM(0, 2, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := NewSHM(1, 2, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.Close() // rank 1 dies before any traffic

		// Ring-eligible send: starts the handshake, spills to the broken
		// socket, and must surface an error within the dial window
		// instead of waiting on an ack that cannot come.
		err = a.Send(1, Header{Kind: 5, Tag: 1, Total: 1}, []byte{0})
		if err == nil {
			t.Fatal("send toward a dead peer mid-handshake succeeded")
		}
		if a.ringSends.Load() != 0 {
			t.Fatal("frames crossed a ring whose handshake never completed")
		}

		// The detector's verdict: every later send fails fast, not after
		// another dial window.
		a.DeclareRankDown(1)
		start := time.Now()
		err = a.Send(1, Header{Kind: 5, Tag: 2, Total: 1}, []byte{0})
		if err == nil {
			t.Fatal("send after DeclareRankDown succeeded")
		}
		if d := time.Since(start); d > 200*time.Millisecond {
			t.Fatalf("post-verdict send took %v, want fast failure", d)
		}
	})

	// Window entry 2: the handshake gets as far as the ack (the producer
	// holds a mapped, acknowledged ring) but the peer dies before the
	// switch marker is sent — the ring must be abandoned, not used.
	t.Run("acked-unswitch", func(t *testing.T) {
		dir := t.TempDir()
		a, err := NewSHM(0, 2, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := NewSHM(1, 2, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// First eligible send opens the handshake; drain it on the peer
		// so its control plane processes the open and acks.
		if err := a.Send(1, Header{Kind: 5, Tag: 1, Total: 1}, []byte{0}); err != nil {
			t.Fatal(err)
		}
		pkt, ok := b.Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		pkt.Release()
		a.outMu.Lock()
		o := a.outs[1]
		a.outMu.Unlock()
		if o == nil {
			t.Fatal("no handshake state after an eligible send")
		}
		deadline := time.Now().Add(5 * time.Second)
		for !o.ackd.Load() {
			if time.Now().After(deadline) {
				t.Fatal("ring ack never arrived")
			}
			time.Sleep(time.Millisecond)
		}
		o.mu.Lock()
		ready := o.ready
		o.mu.Unlock()
		if ready {
			t.Fatal("pair switched before the test could enter the window")
		}

		b.Close() // dies holding the window open: acked, never switched

		// The next send attempts the switch marker over the broken
		// socket; whether it errors immediately or after the link drop
		// is observed, the pair must never flip onto the ring.
		deadline = time.Now().Add(5 * time.Second)
		for {
			err = a.Send(1, Header{Kind: 5, Tag: 2, Total: 1}, []byte{0})
			if err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("sends kept succeeding toward a dead peer")
			}
			time.Sleep(10 * time.Millisecond)
		}
		if a.ringSends.Load() != 0 {
			t.Fatal("frames crossed the ring after the consumer died unswitched")
		}

		a.DeclareRankDown(1)
		start := time.Now()
		if err = a.Send(1, Header{Kind: 5, Tag: 3, Total: 1}, []byte{0}); err == nil {
			t.Fatal("send after DeclareRankDown succeeded")
		}
		if d := time.Since(start); d > 200*time.Millisecond {
			t.Fatalf("post-verdict send took %v, want fast failure", d)
		}
	})

	// Every goroutine the two worlds spawned — pollers, openRing
	// handshakes, dial campaigns — must be gone, and no wire buffer may
	// remain checked out.
	if err := snap.Check(0); err != nil {
		t.Fatal(err)
	}
}
