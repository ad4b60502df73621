//go:build linux || darwin

package fabric

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpicd/internal/obs"
)

// forceWindow runs every SHM test with process_vm_readv switched off, as on
// a host that refuses it: rendezvous takes the pull window and the socket.
var forceWindow = flag.Bool("shm.window", false, "force SHM Gets onto the pull window and the socket (the fallback of the in-place path)")

// noCMA puts the endpoints where such a host's first refused Get would.
func noCMA(nics ...*SHM) {
	for _, nic := range nics {
		nic.cmaOff.Store(true)
	}
}

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
	if *forceWindow {
		noCMA(nics...)
	}
	t.Cleanup(func() {
		for _, nic := range nics {
			nic.Close()
		}
	})
	return nics
}

// waitRing opens the pair's ring with one frame and receives it, so the
// receiver has taken the ring's open and drains the ring from then on.
func waitRing(t *testing.T, from, to *SHM, dst int) {
	t.Helper()
	sends := from.ringSends.Load()
	if err := from.Send(dst, Header{Kind: 5, Tag: 1, Total: 1}, []byte{0}); err != nil {
		t.Fatal(err)
	}
	pkt, ok := to.Recv()
	if !ok {
		t.Fatal("recv failed during ring warmup")
	}
	pkt.Release()
	if from.ringSends.Load() == sends {
		t.Fatal("the pair's first frame did not cross its ring")
	}
}

// waitAsleep returns once the Recv call running on another goroutine has
// found nothing to read and declared itself asleep on nic's rings: from
// then on only a socket frame or a doorbell gets a message through.
func waitAsleep(t *testing.T, nic *SHM) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		nic.inMu.Lock()
		armed := nic.armed
		nic.inMu.Unlock()
		if armed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver never went to sleep\n%s", nic.DebugState())
		}
		runtime.Gosched()
	}
}

// outGen returns the generation of nic's outbound ring toward peer (0
// when it has none) and whether senders use it: it is open and not stale.
func outGen(nic *SHM, peer int) (gen int64, ready bool) {
	nic.outMu.Lock()
	o := nic.outs[peer]
	nic.outMu.Unlock()
	if o == nil {
		return 0, false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ring == nil {
		return 0, false
	}
	return int64(o.ring.Label()), !nic.stale(peer, o)
}

// activeGen returns the generation of nic's active inbound ring from peer
// (0 when it reads none).
func activeGen(nic *SHM, peer int) int64 {
	nic.inMu.Lock()
	defer nic.inMu.Unlock()
	for _, in := range nic.active {
		if in.peer == peer {
			return in.gen
		}
	}
	return 0
}

// waitPairReset returns once nic's outbound ring of generation gen toward
// peer is done with: replaced, or stale — its socket broke, so no frame is
// committed to it any more and the next send opens a new ring.
func waitPairReset(t *testing.T, nic *SHM, peer int, gen int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g, ready := outGen(nic, peer); g != gen || !ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never reset its ring toward rank %d\n%s", nic.Rank(), peer, nic.DebugState())
		}
		runtime.Gosched()
	}
}

// recvTags runs nic's receive side on its own goroutine — the single
// consumer the NIC contract allows — and forwards every frame's tag.
func recvTags(nic *SHM) <-chan uint64 { return recvTagsHeld(nic, nil) }

// recvTagsHeld is recvTags whose consumer, when hold is set, takes and
// drops it before every Recv: a test that locks hold keeps the consumer
// from coming back to the rings.
func recvTagsHeld(nic *SHM, hold *sync.Mutex) <-chan uint64 {
	tags := make(chan uint64, 1<<16)
	go func() {
		defer close(tags)
		for {
			if hold != nil {
				hold.Lock()
				hold.Unlock()
			}
			pkt, ok := nic.Recv()
			if !ok {
				return
			}
			tag := pkt.Hdr.Tag
			pkt.Release()
			tags <- tag
		}
	}()
	return tags
}

// expectTags reads the next n tags and requires first, first+1, ...
func expectTags(t *testing.T, nic *SHM, tags <-chan uint64, first uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case tag, ok := <-tags:
			if !ok {
				t.Fatalf("receiver closed after %d of %d frames", i, n)
			}
			if tag != first+uint64(i) {
				t.Fatalf("frame %d carries tag %d, want %d\n%s", i, tag, first+uint64(i), nic.DebugState())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d of %d (tag %d) never arrived\n%s", i, n, first+uint64(i), nic.DebugState())
		}
	}
}

// shmPairs are TestNICPairOrder's SHM cases: from first contact, so the
// ring is opened mid-stream, and with the ring open and taken in already.
func shmPairs() []nicPair {
	return []nicPair{
		{"shm-first-contact", func(t *testing.T) (NIC, NIC) {
			nics := shmMesh(t, 2, Config{FragSize: 1024})
			return nics[0], nics[1]
		}},
		{"shm-after-switch", func(t *testing.T) (NIC, NIC) {
			nics := shmMesh(t, 2, Config{FragSize: 1024})
			waitRing(t, nics[0], nics[1], 1)
			return nics[0], nics[1]
		}},
	}
}

// TestSHMRingOpenRules pins how a pair's eager ring comes up and how the
// receiver takes the kindRingOpen that announces it. The rows call
// acceptRing on the test goroutine, the receiver's only consumer, as Recv
// does when it takes an open from the inbox.
func TestSHMRingOpenRules(t *testing.T) {
	payload := make([]byte, 3000)
	fillPattern(payload, 4)
	send := func(t *testing.T, nic *SHM, tag uint64) {
		t.Helper()
		if err := nic.Send(1, Header{Kind: 5, Tag: tag, Total: 3000}, payload); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(t *testing.T, nic *SHM, tag uint64) {
		t.Helper()
		pkt, ok := nic.Recv()
		if !ok || pkt.From != 0 || pkt.Hdr.Tag != tag || !bytes.Equal(pkt.Payload, payload) {
			t.Fatalf("want frame %d from rank 0, got ok=%v %+v", tag, ok, pkt)
		}
		pkt.Release()
	}
	size := RingHeaderSize + int64(ringCapForFrag(DefaultFragSize))

	t.Run("first-frame-crosses-ring", func(t *testing.T) {
		nics := shmMesh(t, 2, Config{})
		hdr := Header{Kind: 5, Tag: 99, MsgID: 1, Total: 3000, Aux0: -7, Aux1: 12345}
		if err := nics[0].Send(1, hdr, payload); err != nil {
			t.Fatal(err)
		}
		if n := nics[0].ringSends.Load(); n != 1 {
			t.Fatalf("ringSends = %d after the pair's first Send, want 1", n)
		}
		pkt, ok := nics[1].Recv()
		if !ok || pkt.From != 0 || pkt.Hdr != hdr || !bytes.Equal(pkt.Payload, payload) {
			t.Fatalf("first frame mismatch: ok=%v %+v", ok, pkt)
		}
		pkt.Release()
		gen, ready := outGen(nics[0], 1)
		if !ready || activeGen(nics[1], 0) != gen {
			t.Fatalf("producer writes ring generation %d (ready %v), receiver drains %d", gen, ready, activeGen(nics[1], 0))
		}
	})

	t.Run("older-open-dropped", func(t *testing.T) {
		nics := shmMesh(t, 2, Config{Epoch: 1}) // gen-1 is a generation, not ReviveRank's 0
		send(t, nics[0], 1)
		recv(t, nics[1], 1)
		gen, _ := outGen(nics[0], 1)
		send(t, nics[0], 2)
		// Opens no newer than the active ring came late on an older socket.
		nics[1].acceptRing(0, size, gen)
		nics[1].acceptRing(0, size, gen-1)
		send(t, nics[0], 3)
		if got := activeGen(nics[1], 0); got != gen {
			t.Fatalf("receiver drains ring generation %d after stale opens, want %d", got, gen)
		}
		recv(t, nics[1], 2)
		recv(t, nics[1], 3)
	})

	t.Run("relabelled-ring-not-drained", func(t *testing.T) {
		nics := shmMesh(t, 2, Config{})
		send(t, nics[0], 1)
		recv(t, nics[1], 1)
		gen, _ := outGen(nics[0], 1)
		send(t, nics[0], 2)
		// A newer open names a file still labelled gen: the open that
		// replaces it follows, and this one retires without draining.
		nics[1].acceptRing(0, size, gen+1)
		if got := activeGen(nics[1], 0); got != 0 {
			t.Fatalf("receiver drains ring generation %d, labelled %d, for an open of %d", got, gen, gen+1)
		}
		if pkt, _ := nics[1].pollRings(false); pkt != nil {
			t.Fatalf("frame %d drained from a ring whose label is not its open's", pkt.Hdr.Tag)
		}
	})

	t.Run("missing-ring-resets-pair", func(t *testing.T) {
		nics := shmMesh(t, 2, Config{})
		send(t, nics[0], 1)
		recv(t, nics[1], 1)
		gen, _ := outGen(nics[0], 1)
		if err := os.Remove(shmRingPath(nics[1].dir, 0, 1)); err != nil {
			t.Fatal(err)
		}
		nics[1].acceptRing(0, size, gen+1)
		waitPairReset(t, nics[0], 1, gen)
		deadline := time.Now().Add(10 * time.Second)
		for err := errors.New("not sent"); err != nil; {
			if time.Now().After(deadline) {
				t.Fatalf("no send went through after the reset: %v\n%s", err, nics[0].DebugState())
			}
			if err = nics[0].Send(1, Header{Kind: 5, Tag: 2, Total: 3000}, payload); err != nil && !errors.Is(err, ErrLinkDown) {
				t.Fatal(err) // down until the redial lands
			}
		}
		recv(t, nics[1], 2)
		if g, ready := outGen(nics[0], 1); g <= gen || !ready || activeGen(nics[1], 0) != g {
			t.Fatalf("after the reset the producer writes generation %d (ready %v, was %d), the receiver drains %d", g, ready, gen, activeGen(nics[1], 0))
		}
	})
}

// TestSHMEagerOrderingFromFirstContact floods sequenced frames from first
// contact, with the receiver already blocked in Recv: the ring is opened
// and taken in mid-stream, and the eager class must stay in order. The
// receiver wakes on the open, not on a doorbell, so a first frame it did
// not find on the ring it just mapped would show up here as a hang, and a
// frame read from anywhere else as a tag out of sequence.
func TestSHMEagerOrderingFromFirstContact(t *testing.T) {
	nics := shmMesh(t, 2, Config{FragSize: 256}) // a 4 KiB ring
	const msgs = 10000
	type result struct {
		at, tag uint64
		bad     bool
	}
	got := make(chan result, 1)
	go func() {
		want := make([]byte, 64)
		for i := uint64(0); i < msgs; i++ {
			pkt, ok := nics[1].Recv()
			if !ok {
				got <- result{at: i, bad: true}
				return
			}
			fillPattern(want, byte(i))
			bad := pkt.Hdr.Tag != i || !bytes.Equal(pkt.Payload, want)
			tag := pkt.Hdr.Tag
			pkt.Release()
			if bad {
				got <- result{at: i, tag: tag, bad: true}
				return
			}
		}
		got <- result{}
	}()
	waitAsleep(t, nics[1])
	body := make([]byte, 64)
	for i := 0; i < msgs; i++ {
		fillPattern(body, byte(i))
		if err := nics[0].Send(1, Header{Kind: 5, Tag: uint64(i), Total: 64}, body); err != nil {
			t.Fatal(err)
		}
	}
	if r := <-got; r.bad {
		t.Fatalf("eager class broken at frame %d: tag %d (ring sends %d)",
			r.at, r.tag, nics[0].ringSends.Load())
	}
	if n := nics[0].ringSends.Load(); n != msgs {
		t.Fatalf("%d of %d frames crossed the ring", n, msgs)
	}
}

// TestSHMRingBackpressure uses a tiny ring so the producer repeatedly
// fills it (exercising wraparound and full-ring blocking) while the
// consumer drains concurrently.
func TestSHMRingBackpressure(t *testing.T) {
	nics := shmMesh(t, 2, Config{FragSize: 64}) // a 1 KiB ring, the smallest

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

// TestSHMFragmentsCrossTheRing: from first contact, a frame that is part
// of a larger message — a leading fragment (payload < Total) or a later one
// (Offset > 0) — crosses the ring like a whole one; a pair's data frames
// have one channel.
func TestSHMFragmentsCrossTheRing(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	before := nics[0].ringSends.Load()
	body := make([]byte, 100)
	for _, hdr := range []Header{{Kind: 5, Offset: 0, Total: 4000}, {Kind: 5, Offset: 100, Total: 4000}} {
		if err := nics[0].Send(1, hdr, body); err != nil {
			t.Fatal(err)
		}
		if n, err := nics[0].SendFrom(1, hdr, Bytes(body), 0, 100); err != nil || n != 100 {
			t.Fatalf("SendFrom = %d, %v", n, err)
		}
	}
	for i := 0; i < 4; i++ {
		pkt, ok := nics[1].Recv()
		if !ok {
			t.Fatal("fragment lost")
		}
		pkt.Release()
	}
	if got := nics[0].ringSends.Load() - before; got != 4 {
		t.Fatalf("%d of 4 fragments crossed the ring", got)
	}
}

// TestSHMRingSizedFromFragSize: a pair's ring holds eight full fragments,
// 256 KiB at the default FragSize, and a data frame larger than a quarter
// of it is refused, by Send and SendFrom, before the pair's ring is open
// and after.
func TestSHMRingSizedFromFragSize(t *testing.T) {
	if got := ringCapForFrag(DefaultFragSize); got != 256<<10 {
		t.Fatalf("default ring holds %d bytes, want 256 KiB", got)
	}
	for _, frag := range []int{64, 256, 1024, DefaultFragSize, 64 << 10} {
		if c := ringCapForFrag(frag); c < 8*recordSpan(headerWireSize+frag) {
			t.Errorf("FragSize %d: a %d-byte ring holds fewer than 8 fragments", frag, c)
		}
	}
	nics := shmMesh(t, 2, Config{FragSize: 1024})
	limit := nics[0].frameMax
	if recordSpan(headerWireSize+int(limit)) != nics[0].ringCap/4 || recordSpan(headerWireSize+int(limit)+1) <= nics[0].ringCap/4 {
		t.Fatalf("frame limit %d is not the largest frame a quarter of the %d-byte ring holds", limit, nics[0].ringCap)
	}
	tooBig := make([]byte, limit+1)
	refused := func(when string) {
		t.Helper()
		if err := nics[0].Send(1, Header{Kind: 5, Total: limit + 1}, tooBig); err == nil || !strings.Contains(err.Error(), strconv.FormatInt(limit, 10)) {
			t.Errorf("%s: Send of %d bytes: %v, want an error naming the %d-byte limit", when, limit+1, err, limit)
		}
		if _, err := nics[0].SendFrom(1, Header{Kind: 5, Total: limit + 1}, Bytes(tooBig), 0, limit+1); err == nil {
			t.Errorf("%s: SendFrom of %d bytes accepted", when, limit+1)
		}
	}
	refused("before the ring is open")
	waitRing(t, nics[0], nics[1], 1)
	refused("on the open ring")
	if err := nics[0].Send(1, Header{Kind: 5, Total: limit}, tooBig[:limit]); err != nil {
		t.Fatalf("a frame at the limit: %v", err)
	}
	pkt, ok := nics[1].Recv()
	if !ok || int64(len(pkt.Payload)) != limit {
		t.Fatal("the frame at the limit did not arrive whole")
	}
	pkt.Release()
}

func TestSHMSmallGetSocketPath(t *testing.T) {
	nics := shmMesh(t, 2, Config{FragSize: 1024})
	noCMA(nics...)
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
	// A 512 KiB pull ring holds four full records of winChunk bytes: a
	// 1300 KiB pull crosses as 11 records of ~118 KiB, the last a little
	// shorter, so the ring wraps and the exporter waits for the space the
	// requester frees.
	nics := shmMesh(t, 2, Config{})
	noCMA(nics...)
	data := make([]byte, 1300<<10)
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
	// Offset pull into a shifted sink region, reusing the same ring.
	out2 := make([]byte, 80<<10)
	if err := nics[1].Get(0, key, 100<<10, Bytes(out2), 8<<10, 72<<10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2[8<<10:], data[100<<10:172<<10]) {
		t.Fatal("offset windowed Get mismatch")
	}
}

func TestSHMWindowedGetConcurrent(t *testing.T) {
	// Each Get is just over five full records, so it crosses as six of
	// ~107 KiB: the four share one pull ring, one Get at a time, each
	// starting where the last left off in the ring.
	const part = 640 << 10
	nics := shmMesh(t, 2, Config{})
	noCMA(nics...)
	data := make([]byte, 4*part)
	fillPattern(data, 11)
	key := nics[0].Register(Bytes(data))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	outs := make([][]byte, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = make([]byte, part)
			errs[i] = nics[1].Get(0, key, int64(i)*part, Bytes(outs[i]), 0, part)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], data[i*part:(i+1)*part]) {
			t.Fatalf("concurrent windowed get %d mismatch", i)
		}
	}
}

// parkAt is a pack-only source and an unpack-only sink over b whose call
// number park blocks, after closing parked, until release is closed.
type parkAt struct {
	b       Bytes
	park    int32
	calls   atomic.Int32
	parked  chan struct{}
	release chan struct{}
}

func newParkAt(b Bytes, park int32) *parkAt {
	return &parkAt{b: b, park: park, parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkAt) hold() {
	if p.calls.Add(1) == p.park {
		close(p.parked)
		<-p.release
	}
}

func (p *parkAt) Size() int64                              { return p.b.Size() }
func (p *parkAt) ReadAt(d []byte, off int64) (int, error)  { p.hold(); return p.b.ReadAt(d, off) }
func (p *parkAt) WriteAt(d []byte, off int64) (int, error) { p.hold(); return p.b.WriteAt(d, off) }

// closeMidPull starts a 1 MiB pull through the ring from nics[0] to
// nics[1] with the callback p parked inside ring memory, closes nics[side],
// and releases the callback 50 ms later. Close must wait for the callback,
// which writes or reads the ring, before it unmaps: unmapped, the process
// dies with a fault no test can catch.
func closeMidPull(t *testing.T, side int, src Source, sink Sink, p *parkAt) {
	nics := shmMesh(t, 2, Config{})
	noCMA(nics...)
	key := nics[0].Register(src)
	got := make(chan error, 1)
	go func() { got <- nics[1].Get(0, key, 0, sink, 0, sink.Size()) }()
	select {
	case <-p.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the pull never reached its second chunk")
	}
	closed := make(chan struct{})
	go func() {
		nics[side].Close()
		close(closed)
	}()
	var early bool
	select {
	case <-closed:
		early = true
	case <-time.After(50 * time.Millisecond):
	}
	close(p.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the callback did")
	}
	if early {
		t.Error("Close returned while a callback was inside the pull ring")
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the Get outlived both ends of its pull")
	}
}

// TestSHMCloseMidWindowServe closes the exporter while its serve packs
// into the pull ring.
func TestSHMCloseMidWindowServe(t *testing.T) {
	data := make([]byte, 1<<20)
	fillPattern(data, 21)
	src := newParkAt(Bytes(data), 2)
	closeMidPull(t, 0, src, Bytes(make([]byte, len(data))), src)
}

// TestSHMCloseMidWindowCopy closes the requester while it copies a record
// out of the pull ring into its sink.
func TestSHMCloseMidWindowCopy(t *testing.T) {
	data := make([]byte, 1<<20)
	fillPattern(data, 22)
	sink := newParkAt(Bytes(make([]byte, len(data))), 2)
	closeMidPull(t, 1, nonDirectSource{Bytes(data)}, sink, sink)
}

// TestSHMWindowAfterRequesterRemap: the requester's conn-drop hook ran and
// the exporter's has not (it runs on its own goroutine), so the requester
// pulls through a fresh ring while the exporter still maps the old one.
// The request names the ring, and the bytes land where the requester reads.
func TestSHMWindowAfterRequesterRemap(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	noCMA(nics...)
	data := make([]byte, 300<<10)
	fillPattern(data, 23)
	key := nics[0].Register(Bytes(data))
	out := make([]byte, len(data))
	for i := 0; i < 2; i++ {
		if i == 1 {
			nics[1].connDropped(0)
		}
		clear(out)
		if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("get %d: the bytes are not the source's", i)
		}
	}
	if n := nics[1].winPulls.Load(); n != 2 {
		t.Fatalf("winPulls = %d, want 2", n)
	}
}

// failThird is a pack-only source whose third ReadAt fails.
type failThird struct {
	b      Bytes
	calls  int // one serve calls it, one call at a time
	failed chan struct{}
}

func (f *failThird) Size() int64 { return f.b.Size() }
func (f *failThird) ReadAt(d []byte, off int64) (int, error) {
	if f.calls++; f.calls == 3 {
		close(f.failed)
		return 0, errors.New("the source gives out on its third chunk")
	}
	return f.b.ReadAt(d, off)
}

// waitGetErr is a sink whose first write waits until the source failed and
// the Get's error reached the requester, so the Get returns with a record
// of its own still in the ring.
type waitGetErr struct {
	Bytes
	t      *testing.T
	nic    *SHM
	failed chan struct{}
	calls  int
}

func (w *waitGetErr) WriteAt(d []byte, off int64) (int, error) {
	if w.calls++; w.calls == 1 {
		<-w.failed
		for end := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			w.nic.getMu.Lock()
			arrived := false
			for _, g := range w.nic.gets {
				arrived = arrived || len(g.done) > 0
			}
			w.nic.getMu.Unlock()
			if arrived {
				break
			}
			if time.Now().After(end) {
				w.t.Error("the source's error never reached the requester")
				break
			}
		}
	}
	return w.Bytes.WriteAt(d, off)
}

// TestSHMWindowLeftoverRecords: a Get whose source fails on its third
// chunk fails with the source's error and leaves a record in the ring; the
// next Get through the ring skips it and returns the source's bytes.
func TestSHMWindowLeftoverRecords(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	noCMA(nics...)
	data := make([]byte, 3*winChunk+100)
	fillPattern(data, 24)
	bad := &failThird{b: Bytes(data), failed: make(chan struct{})}
	badKey := nics[0].Register(bad)
	sink := &waitGetErr{Bytes: Bytes(make([]byte, len(data))), t: t, nic: nics[1], failed: bad.failed}
	err := nics[1].Get(0, badKey, 0, sink, 0, int64(len(data)))
	if err == nil || !strings.Contains(err.Error(), "third chunk") {
		t.Fatalf("Get over a failing source: %v, want the source's error", err)
	}
	nics[1].winMu.Lock()
	w := nics[1].winIns[0]
	nics[1].winMu.Unlock()
	w.mu.Lock()
	left := !w.ring.Empty()
	w.mu.Unlock()
	if !left {
		t.Fatal("the failed Get left no record behind: nothing to skip")
	}
	key := nics[0].Register(Bytes(data))
	out := make([]byte, len(data))
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("the Get after a failed one did not return the source's bytes")
	}
}

// forgeGet sends req to rank from as a Get request of nic's, registered
// where kindGetErr finds it, and returns the error the exporter answers.
func forgeGet(t *testing.T, nic *SHM, from int, req Header) error {
	t.Helper()
	id := nic.nextGet.Add(1)
	g := &streamGet{id: id, peer: from, done: make(chan error, 1)}
	nic.getMu.Lock()
	nic.gets[id] = g
	nic.getMu.Unlock()
	defer func() {
		nic.getMu.Lock()
		delete(nic.gets, id)
		nic.getMu.Unlock()
	}()
	req.Kind, req.MsgID = kindGetReq, id
	if _, err := nic.sendOn(from, req); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-g.done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("rank %d never answered the request %+v", from, req)
		return nil
	}
}

// TestSHMWindowRequestRefused: an exporter refuses a windowed Get request
// for no bytes — its serve would divide by a record count of 0 — and one
// naming generation 0, pullRing's "create", which would make the exporter
// serve into a requester-side ring of its own. It answers kindGetErr and
// lives on, and the next real Get returns the source's bytes.
func TestSHMWindowRequestRefused(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	noCMA(nics...)
	data := make([]byte, 300<<10)
	fillPattern(data, 25)
	key := nics[0].Register(Bytes(data))
	get := func(t *testing.T) {
		t.Helper()
		out := make([]byte, len(data))
		if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(out))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("the Get did not return the source's bytes")
		}
	}
	get(t) // the requester's pull ring exists from here on
	nics[1].winMu.Lock()
	gen := nics[1].winIns[0].gen
	nics[1].winMu.Unlock()
	for _, row := range []struct {
		name       string
		total, gen int64
	}{
		{"total-0", 0, gen},
		{"total-negative", -1, gen},
		{"generation-0", 4096, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			req := Header{Flags: flagGetWindow, Tag: uint64(row.gen), Total: row.total, Aux0: RingHeaderSize + winBytes, Aux1: int64(key)}
			if err := forgeGet(t, nics[1], 0, req); err == nil || !strings.Contains(err.Error(), "malformed") {
				t.Fatalf("request %+v answered %v, want a refusal", req, err)
			}
			get(t)
		})
	}
	if _, err := os.Stat(shmWinPath(nics[0].dir, 1, 0)); err == nil {
		t.Fatal("the exporter made a requester-side pull ring of its own")
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
// the ring poller and the socket plane share the stream's counting pool.
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

// TestSHMRingHandshakePeerDeath kills the consumer side of an eager ring
// while the ring comes up — before the producer could reach it, and after
// its open and first frame went out but before the consumer took them in
// — and requires the producer to (a) fail sends fast once the death
// verdict lands, and (b) tear down leak-free: no dial campaign outliving
// the world, no wire buffer checked out, no ring file left behind.
func TestSHMRingHandshakePeerDeath(t *testing.T) {
	snap := obs.TakeLeakSnapshot()
	cfg := Config{DialTimeout: 300 * time.Millisecond}
	failsFast := func(t *testing.T, a *SHM) {
		t.Helper()
		a.DeclareRankDown(1)
		start := time.Now()
		if err := a.Send(1, Header{Kind: 5, Tag: 3, Total: 1}, []byte{0}); err == nil {
			t.Fatal("send after DeclareRankDown succeeded")
		}
		if d := time.Since(start); d > 200*time.Millisecond {
			t.Fatalf("post-verdict send took %v, want fast failure", d)
		}
	}
	noRingFile := func(t *testing.T, dir string) {
		t.Helper()
		if left, _ := filepath.Glob(filepath.Join(dir, "ring-*")); len(left) != 0 {
			t.Fatalf("ring files left after Close: %v", left)
		}
	}

	// The peer is dead before the open is even sendable: no ring is made.
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

		// Ring-eligible send: the socket the open would go out on never
		// comes up, so the send fails within the dial window.
		err = a.Send(1, Header{Kind: 5, Tag: 1, Total: 1}, []byte{0})
		if err == nil {
			t.Fatal("send toward a dead peer succeeded")
		}
		if a.ringSends.Load() != 0 {
			t.Fatal("a frame crossed a ring whose open never went out")
		}
		failsFast(t, a)
		a.Close()
		noRingFile(t, dir)
	})

	// The open and the first frame are out, and the consumer dies holding
	// both unread: it never mapped the ring.
	t.Run("opened-never-mapped", func(t *testing.T) {
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
		if err := a.Send(1, Header{Kind: 5, Tag: 1, Total: 1}, []byte{0}); err != nil {
			t.Fatal(err)
		}
		if a.ringSends.Load() != 1 {
			t.Fatal("the first frame did not cross the ring")
		}
		b.Close() // dies holding an unread open and frame

		// Sends go into the ring until its socket is seen broken (or the
		// ring fills), then fail: the pair is stale and no new socket
		// comes up to announce another ring on.
		deadline := time.Now().Add(5 * time.Second)
		for a.Send(1, Header{Kind: 5, Tag: 2, Total: 1}, []byte{0}) == nil {
			if time.Now().After(deadline) {
				t.Fatal("sends kept succeeding toward a dead peer")
			}
		}
		failsFast(t, a)
		a.Close()
		noRingFile(t, dir)
	})

	// Every goroutine the two worlds spawned — pollers and dial campaigns —
	// must be gone, and no wire buffer may remain checked out.
	if err := snap.Check(0); err != nil {
		t.Fatal(err)
	}
}

// TestSHMDoorbellNoLostWakeup is the provider-level lost-wake-up check:
// every send finds the receiver asleep (an idle gap precedes it), so every
// frame depends on its own doorbell, and a burst costs one bell however
// many frames follow. The assertions are counts, not times.
func TestSHMDoorbellNoLostWakeup(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	var hold sync.Mutex
	tags := recvTagsHeld(nics[1], &hold)
	send := func(tag uint64) {
		t.Helper()
		if err := nics[0].Send(1, Header{Kind: 5, Tag: tag, Total: 1}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up until frames cross the ring.
	next := uint64(0)
	for nics[0].ringSends.Load() == 0 {
		send(next)
		expectTags(t, nics[1], tags, next, 1)
		next++
	}
	const gaps = 200
	bells, sends := nics[0].bellsSent.Load(), nics[0].ringSends.Load()
	for i := 0; i < gaps; i++ {
		waitAsleep(t, nics[1]) // the idle gap
		send(next)
		expectTags(t, nics[1], tags, next, 1)
		next++
	}
	if d := nics[0].ringSends.Load() - sends; d != gaps {
		t.Fatalf("%d of %d frames crossed the ring", d, gaps)
	}
	if d := nics[0].bellsSent.Load() - bells; d > gaps {
		t.Fatalf("%d bells for %d messages", d, gaps)
	}
	if nics[1].bellsRecv.Load() == 0 {
		t.Fatal("messages arrived from idle without a single doorbell")
	}

	// A burst written while the consumer is asleep and, once the first
	// frame woke it, held away from the rings: one sleep, so one bell at
	// most. (Left to run, a consumer that keeps up sleeps between frames and
	// each of its bells is due; what this counts is bells per sleep.)
	const burst = 64
	waitAsleep(t, nics[1])
	hold.Lock()
	bells = nics[0].bellsSent.Load()
	for i := 0; i < burst; i++ {
		send(next + uint64(i))
	}
	d := nics[0].bellsSent.Load() - bells
	hold.Unlock()
	expectTags(t, nics[1], tags, next, burst)
	if d > 1 {
		t.Fatalf("%d bells for a %d-message burst to one sleep: the doorbell is per sleep, not per message", d, burst)
	}
	if !strings.Contains(nics[1].DebugState(), "asleep=") {
		t.Fatalf("DebugState does not report the asleep flags:\n%s", nics[1].DebugState())
	}
}

// TestSHMCloseWakesSleepingRecv: Close must unblock a receiver that is
// asleep on its doorbells, with ok=false.
func TestSHMCloseWakesSleepingRecv(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	waitRing(t, nics[0], nics[1], 1)
	tags := recvTags(nics[1])
	waitAsleep(t, nics[1])
	nics[1].Close()
	select {
	case _, ok := <-tags:
		if ok {
			t.Fatal("a frame arrived out of nowhere")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close left the sleeping receiver blocked")
	}
}

// TestSHMCloseDuringRingOpen closes an endpoint while first-contact sends
// are still opening their rings, which is how every launched run ends (the
// last frames reach peers never written to before). Close unmaps the
// segments; a sender that laid its ring over one afterwards would die with
// a fault that no test can catch, so the first guard is that this returns
// at all. Rings are made on the sending goroutine only, so once every
// endpoint closed the session directory is empty.
func TestSHMCloseDuringRingOpen(t *testing.T) {
	const peers = 4
	base := t.TempDir()
	for round := 0; round < 40; round++ {
		dir := filepath.Join(base, strconv.Itoa(round))
		if err := os.Mkdir(dir, 0o700); err != nil {
			t.Fatal(err)
		}
		nics := make([]*SHM, peers+1)
		for r := range nics {
			nic, err := NewSHM(r, peers+1, dir, Config{DialTimeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			nics[r] = nic
		}
		var wg sync.WaitGroup
		for p := 1; p <= peers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				_ = nics[0].Send(p, Header{Kind: 1, Total: 1}, []byte{1})
			}(p)
		}
		runtime.Gosched()
		nics[0].Close()
		wg.Wait()
		for _, nic := range nics[1:] {
			nic.Close()
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("round %d: %d files left after Close, the first %s", round, len(left), left[0].Name())
		}
	}
}

// TestSHMRingResetWhileReceiverSleeps drives both ways a pair's inbound
// ring is replaced under a sleeping receiver — a new kindRingOpen after
// the pair's socket broke, and the survivor's own ReviveRank —
// and requires that the receiver ends up on the fresh ring (not stranded
// on the retired one, not ignoring the new one) with the class in order.
func TestSHMRingResetWhileReceiverSleeps(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	tags := recvTags(nics[1])
	next := uint64(0)
	// pump sends until frames cross a ring of a generation above gen, and
	// every frame sent has arrived, in order.
	pump := func(gen int64) int64 {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := nics[0].Send(1, Header{Kind: 5, Tag: next, Total: 1}, []byte{1})
			if err == nil {
				expectTags(t, nics[1], tags, next, 1)
				next++
			} else if !errors.Is(err, ErrLinkDown) { // down until the redial lands
				t.Fatal(err)
			}
			if g, ready := outGen(nics[0], 1); g > gen && ready {
				return g
			}
			if time.Now().After(deadline) {
				t.Fatalf("pair never came back onto a ring\n%s\n%s", nics[0].DebugState(), nics[1].DebugState())
			}
		}
	}
	gen := pump(0)

	// New open: the pair's socket breaks while the receiver sleeps on the
	// old ring, so the producer opens a new ring over the next socket.
	// (A frame committed to the ring while the break is still unnoticed is
	// delivered, but its bell fails the Send: the pump waits that out.)
	waitAsleep(t, nics[1])
	nics[0].sever(1)
	waitPairReset(t, nics[0], 1, gen)
	gen = pump(gen)
	expectRing := func() {
		t.Helper()
		before := nics[0].ringSends.Load()
		for i := 0; i < 50; i++ {
			if err := nics[0].Send(1, Header{Kind: 5, Tag: next + uint64(i), Total: 1}, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		expectTags(t, nics[1], tags, next, 50)
		next += 50
		if d := nics[0].ringSends.Load() - before; d != 50 {
			t.Fatalf("%d of 50 frames crossed the fresh ring", d)
		}
		if got := activeGen(nics[1], 0); got != gen {
			t.Fatalf("receiver drains ring generation %d, producer writes generation %d", got, gen)
		}
	}
	expectRing()

	// Revival: the receiver side retires the ring in band and breaks the
	// socket; the producer resets on the drop and opens a new ring.
	waitAsleep(t, nics[1])
	nics[1].ReviveRank(0)
	waitPairReset(t, nics[0], 1, gen)
	gen = pump(gen)
	expectRing()
}

// TestSHMCorruptRingResetsPair scribbles over an active inbound ring's
// tail word — what a peer killed mid-Commit leaves behind. The receiver
// must not fault: it retires the ring, breaks the pair's socket, and both
// sides reset, and the producer's next send opens a fresh ring.
func TestSHMCorruptRingResetsPair(t *testing.T) {
	nics := shmMesh(t, 2, Config{})
	waitRing(t, nics[0], nics[1], 1)
	tags := recvTags(nics[1])
	waitAsleep(t, nics[1])
	gen, _ := outGen(nics[0], 1)
	nics[1].inMu.Lock()
	atomic.StoreUint64(nics[1].active[0].ring.tail, 12345) // unaligned, past head+cap
	nics[1].inMu.Unlock()
	select { // any wake-up makes the receiver look at the ring
	case nics[1].wake <- struct{}{}:
	default:
	}
	waitPairReset(t, nics[0], 1, gen) // the corrupt ring became a link failure
	// Frames sent while the pair resets may be lost (this test runs below
	// the reliable layer); the pair must come back and deliver in order.
	deadline := time.Now().Add(10 * time.Second)
	sends := nics[0].ringSends.Load()
	var last uint64
	for tag := uint64(1); nics[0].ringSends.Load() < sends+20; tag++ {
		if time.Now().After(deadline) {
			t.Fatalf("pair never came back onto a ring\n%s\n%s", nics[0].DebugState(), nics[1].DebugState())
		}
		if err := nics[0].Send(1, Header{Kind: 5, Tag: tag, Total: 1}, []byte{1}); err != nil {
			continue // link down until the redial lands
		}
		select {
		case got := <-tags:
			if got <= last {
				t.Fatalf("tag %d after %d: stale ring still being read", got, last)
			}
			last = got
		case <-time.After(100 * time.Millisecond): // lost in the torn-down ring
		}
	}
	if last == 0 {
		t.Fatal("nothing was delivered after the reset")
	}
}

// TestSHMLosslessUnderBackpressure backs the provider's Lossless claim
// (SHM.Link): two senders push frames at one slow receiver through a ring a
// few frames deep — whole frames and fragments alike — so producers park on
// the full ring again and again. Every Send that returned nil arrives
// exactly once, and nothing between the live endpoints reset a pair: no
// socket broke and no ring was replaced.
func TestSHMLosslessUnderBackpressure(t *testing.T) {
	nics := shmMesh(t, 3, Config{FragSize: 256}) // a 4 KiB ring
	for _, s := range []int{0, 2} {
		waitRing(t, nics[s], nics[1], 1)
	}
	gens := [3]int64{}
	for _, s := range []int{0, 2} {
		gens[s], _ = outGen(nics[s], 1)
	}
	const frames = 1500
	got := make(map[uint64]int)
	recvd := make(chan struct{})
	go func() {
		defer close(recvd)
		for n := 0; n < 2*frames; n++ {
			pkt, ok := nics[1].Recv()
			if !ok {
				return
			}
			got[pkt.Hdr.Tag]++
			pkt.Release()
			if n%100 == 0 {
				time.Sleep(time.Millisecond) // a receiver busy elsewhere
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	payload := make([]byte, 200)
	for _, s := range []int{0, 2} {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				hdr := Header{Kind: 6, Tag: uint64(s)<<32 | uint64(i), Total: int64(len(payload))}
				if i%3 == 2 {
					hdr.Offset, hdr.Total = 1, hdr.Total+1 // a fragment
				}
				if err := nics[s].Send(1, hdr, payload); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case <-recvd:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d accepted frames arrived\n%s", len(got), 2*frames, nics[1].DebugState())
	}
	for _, s := range []int{0, 2} {
		for i := 0; i < frames; i++ {
			if n := got[uint64(s)<<32|uint64(i)]; n != 1 {
				t.Fatalf("frame %d of rank %d arrived %d times", i, s, n)
			}
		}
		if g, ready := outGen(nics[s], 1); g != gens[s] || !ready {
			t.Errorf("rank %d's ring toward 1 went from generation %d to %d (ready %v)", s, gens[s], g, ready)
		}
		if nics[s].ringFullWaits.Load() == 0 {
			t.Errorf("rank %d never waited on a full ring: no backpressure exercised", s)
		}
	}
	for r, nic := range nics {
		if n := nic.connDrops.Load(); n != 0 {
			t.Errorf("rank %d dropped %d connections between live endpoints", r, n)
		}
	}
}

// ctrlKinds are the provider frames FuzzSHMCtrl writes, picked by a
// record's first byte.
var ctrlKinds = [...]Kind{kindRingOpen, kindRingBell, kindWinBell, kindGetReq}

// ctrlRecord is one FuzzSHMCtrl record: the kind's index, then a header.
func ctrlRecord(kind byte, hdr Header) []byte {
	rec := make([]byte, 1+headerWireSize)
	rec[0] = kind
	encodeHeader((*[headerWireSize]byte)(rec[1:]), hdr)
	return rec
}

// FuzzSHMCtrl writes a fuzzed sequence of the SHM provider's control
// frames — ring opens, doorbells and windowed Get requests, every header
// field arbitrary — from rank 1's socket to rank 0 while rank 0 receives,
// after rank 1 opened a real ring toward it. Whatever the frames say,
// nothing panics, both endpoints close, no wire buffer stays checked out
// and the session directory ends empty.
func FuzzSHMCtrl(f *testing.F) {
	ringSize := int64(RingHeaderSize + ringCapForFrag(1024))
	f.Add(ctrlRecord(3, Header{Tag: 1, Total: 0, Aux0: RingHeaderSize + winBytes, Aux1: 1}))
	f.Add(ctrlRecord(3, Header{Tag: 0, Total: 4096, Aux0: RingHeaderSize + winBytes, Aux1: 1}))
	f.Add(append(ctrlRecord(0, Header{Aux0: ringSize, Aux1: 2}), ctrlRecord(1, Header{})...))
	f.Add(append(ctrlRecord(0, Header{}), ctrlRecord(0, Header{Aux0: ringSize, Aux1: 1})...))
	f.Add(append(ctrlRecord(0, Header{Aux0: -1, Aux1: 9}), ctrlRecord(2, Header{Tag: 1})...))
	f.Fuzz(func(t *testing.T, frames []byte) {
		nics := shmMesh(t, 2, Config{FragSize: 1024})
		nics[0].Register(Bytes(make([]byte, 64<<10)))
		if err := nics[1].Send(0, Header{Kind: 5, Total: 1}, []byte{1}); err != nil {
			t.Fatal(err)
		}
		pkt, ok := nics[0].Recv()
		if !ok {
			t.Fatal("the real ring's frame never arrived")
		}
		pkt.Release()
		received := make(chan struct{})
		go func() {
			defer close(received)
			for {
				pkt, ok := nics[0].Recv()
				if !ok {
					return
				}
				pkt.Release()
			}
		}()

		const maxFrames = 16
		bells := int64(0)
		for n := 0; len(frames) >= 1+headerWireSize && n < maxFrames; n++ {
			hdr := decodeHeader(frames[1 : 1+headerWireSize])
			hdr.Kind = ctrlKinds[int(frames[0])%len(ctrlKinds)]
			if hdr.Kind == kindGetReq {
				hdr.Flags |= flagGetWindow
			}
			frames = frames[1+headerWireSize:]
			if _, err := nics[1].sendOn(0, hdr); err == nil && (hdr.Kind == kindRingBell || hdr.Kind == kindWinBell) {
				bells++
			}
		}
		// A last bell: once rank 0 counted every bell, its read loop took
		// every frame, and once its inbox is empty Recv took every open.
		// A socket rank 0 severed lost what was still in it.
		if _, err := nics[1].sendOn(0, Header{Kind: kindRingBell}); err == nil {
			bells++
		}
		for end := time.Now().Add(2 * time.Second); time.Now().Before(end); runtime.Gosched() {
			if nics[0].connDrops.Load() != 0 || nics[0].bellsRecv.Load() >= bells && len(nics[0].inbox) == 0 {
				break
			}
		}

		closed := make(chan struct{})
		go func() {
			nics[1].Close()
			nics[0].Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("Close hung\n%s\n%s", nics[0].DebugState(), nics[1].DebugState())
		}
		<-received
		for _, nic := range nics {
			for end := time.Now().Add(2 * time.Second); nic.PoolOutstanding() != 0; runtime.Gosched() {
				if time.Now().After(end) {
					t.Fatalf("rank %d leaks %d pool buffers", nic.Rank(), nic.PoolOutstanding())
				}
			}
		}
		if left, _ := os.ReadDir(nics[0].dir); len(left) != 0 {
			t.Fatalf("%d files left in the session directory, the first %s", len(left), left[0].Name())
		}
	})
}
