package fabric

import "testing"

func TestBufPoolSizing(t *testing.T) {
	p := newBufPool(1024)
	cases := []struct {
		n       int
		wantCap int
	}{
		{0, 0},           // no payload: no buffer
		{1, 1024},        // sub-fragment rounds up to one fragment
		{1024, 1024},     // exact fragment
		{1025, 2048},     // rounds up to the next fragment multiple
		{3 * 1024, 3072}, // exact multiple
	}
	for _, c := range cases {
		pkt := p.get(c.n)
		if len(pkt.Payload) != c.n {
			t.Fatalf("get(%d): payload len %d", c.n, len(pkt.Payload))
		}
		if cap(pkt.Payload) != c.wantCap {
			t.Fatalf("get(%d): cap %d, want %d", c.n, cap(pkt.Payload), c.wantCap)
		}
		pkt.Release()
	}
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after releasing everything", got)
	}
}

// TestBufPoolRecyclesOversized pins the pooling win: packets larger than
// one fragment are recycled, buffer and all, instead of handed to the GC
// per message.
func TestBufPoolRecyclesOversized(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random: the count is noise")
	}
	p := newBufPool(16 * 1024)
	for _, n := range []int{0, 16 * 1024, 100 * 1024, MaxFragSize} {
		avg := testing.AllocsPerRun(50, func() {
			p.get(n).Release()
		})
		if avg > 0 {
			t.Fatalf("get(%d)/Release cycle allocates %.1f/op, want 0", n, avg)
		}
	}
}

func TestBufPoolDropsForeignBuffers(t *testing.T) {
	p := newBufPool(1024)
	pkt := p.get(2 * MaxFragSize) // beyond the class table: plain allocation
	if len(pkt.Payload) != 2*MaxFragSize {
		t.Fatalf("oversize get: len %d", len(pkt.Payload))
	}
	pkt.Release() // must not panic; dropped, not pooled or counted
	(&Packet{Payload: make([]byte, 1000)}).Release()
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after foreign releases", got)
	}
}

// TestPacketReleaseIdempotent: a second Release of one delivery must not
// hand the packet or its buffer out twice, nor count it twice.
func TestPacketReleaseIdempotent(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	if err := f.NIC(0).Send(1, Header{Kind: 1}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	pkt, ok := f.NIC(1).Recv()
	if !ok || string(pkt.Payload) != "payload" {
		t.Fatalf("recv = %v, %v", pkt, ok)
	}
	pkt.Release()
	pkt.Release()
	new(Packet).Release() // the zero value
	if got := f.PoolOutstanding(); got != 0 {
		t.Fatalf("outstanding = %d after a double release, want 0", got)
	}
	a, b := f.pool.get(7), f.pool.get(7)
	if a == b || &a.buf[0] == &b.buf[0] {
		t.Fatal("double release put one packet into the pool twice")
	}
	a.Release()
	b.Release()
}

// TestPacketPoisonAfterRelease: in a test binary a released packet is
// blank and its payload bytes are overwritten, so a consumer that keeps
// reading one fails on the spot.
func TestPacketPoisonAfterRelease(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	msg := []byte("still here?")
	if err := f.NIC(0).Send(1, Header{Kind: 1, Tag: 9}, msg); err != nil {
		t.Fatal(err)
	}
	pkt, _ := f.NIC(1).Recv()
	stale := pkt.Payload
	pkt.Release()
	if pkt.Payload != nil || pkt.Hdr != (Header{}) || pkt.From != 0 {
		t.Fatalf("released packet still describes a message: %+v", pkt)
	}
	for i, c := range stale {
		if c != 0xDB {
			t.Fatalf("stale payload byte %d = %#x, want the 0xDB poison", i, c)
		}
	}
}
