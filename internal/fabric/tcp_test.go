package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mpicd/internal/obs"
)

// freeAddrs reserves n distinct loopback ports and returns their addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// dialMesh brings up an n-rank TCP fabric on loopback and warms the full
// mesh — every rank dials every lower rank — before returning (these
// tests predate lazy dialing and some reach into connection state
// directly).
func dialMesh(t *testing.T, n int, cfg Config) []*TCP {
	t.Helper()
	addrs := freeAddrs(t, n)
	nics := make([]*TCP, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nic, err := NewTCP(i, addrs, cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", i, err)
				return
			}
			nics[i] = nic
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, nic := range nics {
			if nic != nil {
				nic.Close()
			}
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for i, nic := range nics {
		for peer := 0; peer < i; peer++ {
			if _, err := nic.conn(peer); err != nil {
				t.Fatalf("rank %d warm-up dial to rank %d: %v", i, peer, err)
			}
		}
	}
	return nics
}

func TestTCPSendRecv(t *testing.T) {
	nics := dialMesh(t, 2, Config{})
	payload := make([]byte, 3000)
	fillPattern(payload, 4)
	hdr := Header{Kind: 5, Tag: 99, MsgID: 1, Offset: 10, Total: 3000, Aux0: -7, Aux1: 12345}
	if err := nics[0].Send(1, hdr, payload); err != nil {
		t.Fatal(err)
	}
	pkt, ok := nics[1].Recv()
	if !ok {
		t.Fatal("Recv failed")
	}
	if pkt.From != 0 || pkt.Hdr != hdr {
		t.Fatalf("header roundtrip: got From=%d %+v", pkt.From, pkt.Hdr)
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTCPGatherSendFromIov(t *testing.T) {
	nics := dialMesh(t, 2, Config{})
	src, all := makeIov(t, 7, 1000, 13)
	if n, err := nics[0].SendFrom(1, Header{Total: src.Size()}, src, 0, src.Size()); err != nil || n != src.Size() {
		t.Fatalf("SendFrom = %d, %v", n, err)
	}
	pkt, _ := nics[1].Recv()
	if !bytes.Equal(pkt.Payload, all) {
		t.Fatal("iov gather over TCP mismatch")
	}
}

func TestTCPSendFromGeneric(t *testing.T) {
	nics := dialMesh(t, 2, Config{})
	data := make([]byte, 900)
	fillPattern(data, 6)
	src := nonDirectSource{Bytes(data)}
	if n, err := nics[0].SendFrom(1, Header{}, src, 100, 700); err != nil || n != 700 {
		t.Fatalf("SendFrom = %d, %v", n, err)
	}
	pkt, _ := nics[1].Recv()
	if !bytes.Equal(pkt.Payload, data[100:800]) {
		t.Fatal("generic SendFrom over TCP mismatch")
	}
}

func TestTCPRegisterGet(t *testing.T) {
	nics := dialMesh(t, 2, Config{FragSize: 1024})
	data := make([]byte, 10000)
	fillPattern(data, 8)
	key := nics[0].Register(Bytes(data))
	if nics[0].Served(key) {
		t.Fatal("a registration nobody read reports Served")
	}
	out := make([]byte, 10000)
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("TCP Get mismatch")
	}
	if !nics[0].Served(key) {
		t.Fatal("the exporter does not report the Get it served")
	}
	defer func() {
		if nics[0].Deregister(key); nics[0].Served(key) {
			t.Error("a revoked key reports Served")
		}
	}()
	// Offset get into a shifted sink position.
	out2 := make([]byte, 600)
	if err := nics[1].Get(0, key, 500, Bytes(out2), 100, 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2[100:], data[500:1000]) {
		t.Fatal("offset TCP Get mismatch")
	}
	if err := nics[1].Get(0, key+100, 0, Bytes(out2), 0, 1); err == nil {
		t.Fatal("Get with bad key should fail")
	}
}

func TestTCPThreeRankMesh(t *testing.T) {
	nics := dialMesh(t, 3, Config{})
	// Every rank sends to every other rank.
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			hdr := Header{Tag: uint64(src*10 + dst)}
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
		}
		if len(got) != 2 {
			t.Fatalf("rank %d received %d distinct messages", dst, len(got))
		}
	}
}

func TestTCPSelfSendRejected(t *testing.T) {
	nics := dialMesh(t, 2, Config{})
	if err := nics[0].Send(0, Header{}); err == nil {
		t.Fatal("self-send over TCP should be rejected")
	}
}

// lazyMesh brings up an n-rank TCP fabric with lazy dialing (the default)
// using the ListenTCP/Addr/Join bootstrap flow: every rank binds an
// ephemeral port and the bound addresses are exchanged afterwards,
// exactly like the launcher's rendezvous.
func lazyMesh(t *testing.T, n int, cfg Config) []*TCP {
	t.Helper()
	nics := make([]*TCP, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nic, err := ListenTCP(i, n, "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = nic
		addrs[i] = nic.Addr()
	}
	for _, nic := range nics {
		if err := nic.Join(addrs); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nic := range nics {
			nic.Close()
		}
	})
	return nics
}

func TestTCPLazyDialOnFirstSend(t *testing.T) {
	nics := lazyMesh(t, 4, Config{})
	// Nothing has been sent: no rank holds any connection.
	for i, nic := range nics {
		if n := nic.NumConns(); n != 0 {
			t.Fatalf("rank %d holds %d connections before any traffic", i, n)
		}
	}
	// One exchange between ranks 0 and 3 brings up exactly that link.
	if err := nics[0].Send(3, Header{Tag: 7}, []byte{42}); err != nil {
		t.Fatal(err)
	}
	pkt, ok := nics[3].Recv()
	if !ok || pkt.From != 0 || pkt.Payload[0] != 42 {
		t.Fatalf("lazy-dial delivery: ok=%v pkt=%+v", ok, pkt)
	}
	if n := nics[0].NumConns(); n != 1 {
		t.Fatalf("rank 0 holds %d connections, want 1", n)
	}
	if n := nics[1].NumConns(); n != 0 {
		t.Fatalf("idle rank 1 holds %d connections", n)
	}
	// The reverse direction shares the same connection instead of dialing
	// a second one.
	if err := nics[3].Send(0, Header{Tag: 8}, []byte{43}); err != nil {
		t.Fatal(err)
	}
	if pkt, ok := nics[0].Recv(); !ok || pkt.From != 3 || pkt.Payload[0] != 43 {
		t.Fatal("reverse delivery over shared connection failed")
	}
	if n := nics[3].NumConns(); n != 1 {
		t.Fatalf("rank 3 holds %d connections after reuse, want 1", n)
	}
}

// TestTCPLazySimultaneousDial drives both sides into dialing each other
// at once; the tie-break must collapse the pair to a usable link (in
// either direction) rather than deadlock or cross-install.
func TestTCPLazySimultaneousDial(t *testing.T) {
	for round := 0; round < 10; round++ {
		nics := lazyMesh(t, 2, Config{})
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = nics[i].Send(1-i, Header{Tag: uint64(i)}, []byte{byte(i)})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: rank %d send: %v", round, i, err)
			}
		}
		for i := 0; i < 2; i++ {
			pkt, ok := nics[i].Recv()
			if !ok || pkt.From != 1-i {
				t.Fatalf("round %d: rank %d recv: ok=%v from=%d", round, i, ok, pkt.From)
			}
		}
		nics[0].Close()
		nics[1].Close()
	}
}

// TestTCPUnreachablePeerNamesAddress asserts the lazy path fails with an
// error naming the peer rank and its advertised address — not a hang —
// when that address is dead.
func TestTCPUnreachablePeerNamesAddress(t *testing.T) {
	dead := freeAddrs(t, 1)[0] // reserved then released: nothing listens here
	nic, err := ListenTCP(0, 2, "127.0.0.1:0", Config{DialTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nic.Close()
	if err := nic.Join([]string{nic.Addr(), dead}); err != nil {
		t.Fatal(err)
	}
	err = nic.Send(1, Header{}, []byte{1})
	if err == nil {
		t.Fatal("send to unreachable peer should fail")
	}
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("want ErrLinkDown, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, dead) {
		t.Fatalf("error does not name peer rank and address: %v", err)
	}
}

func TestTCPRedialAfterDisconnect(t *testing.T) {
	nics := dialMesh(t, 2, Config{})
	if err := nics[0].Send(1, Header{Tag: 1}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if pkt, ok := nics[1].Recv(); !ok || pkt.Payload[0] != 1 {
		t.Fatal("pre-break send failed")
	}
	// Sever the socket out from under both sides. Rank 1 dialed rank 0,
	// so rank 1 redials and rank 0's accept loop re-installs.
	nics[1].connsMu.RLock()
	conn := nics[1].conns[0]
	nics[1].connsMu.RUnlock()
	conn.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := nics[1].Send(0, Header{Tag: 2}, []byte{2})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrLinkDown) {
			t.Fatalf("send during redial: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("link did not come back within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pkt, ok := nics[0].Recv(); !ok || pkt.Payload[0] != 2 {
		t.Fatal("post-redial send failed")
	}
	// The reverse direction works over the replacement connection too.
	if err := nics[0].Send(1, Header{Tag: 3}, []byte{3}); err != nil {
		t.Fatalf("reverse send after redial: %v", err)
	}
	if pkt, ok := nics[1].Recv(); !ok || pkt.Payload[0] != 3 {
		t.Fatal("reverse delivery after redial failed")
	}
}

// controlSince returns the control events rank recorded under note since
// start (Unix nanoseconds). The ring is shared by the whole process.
func controlSince(start int64, rank int, note string) []obs.Event {
	var out []obs.Event
	for _, ev := range obs.Control.Events() {
		if ev.Kind == obs.EvControl && ev.Nanos >= start && int(ev.Rank) == rank && ev.Note == note {
			out = append(out, ev)
		}
	}
	return out
}

// TestControlEvents: with no observer configured, a TCP pair records its
// connection steps into obs.Control — the install on first send, the drop
// (with its site) when the socket is severed, and the redial's install.
func TestControlEvents(t *testing.T) {
	start := time.Now().UnixNano()
	nics := lazyMesh(t, 2, Config{})
	if err := nics[1].Send(0, Header{Tag: 1}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if pkt, ok := nics[0].Recv(); !ok || pkt.Payload[0] != 1 {
		t.Fatal("first send not delivered")
	}
	installs := controlSince(start, 1, "conn install")
	if len(installs) != 1 || installs[0].Peer != 0 {
		t.Fatalf("first send: rank 1 installs = %+v, want one toward rank 0", installs)
	}
	if got := controlSince(start, 0, "conn install"); len(got) != 1 || got[0].Peer != 1 {
		t.Fatalf("first send: rank 0 installs = %+v, want one toward rank 1", got)
	}
	// Rank 1 is the higher rank, so after the drop it redials on its own.
	nics[1].sever(0)
	deadline := time.Now().Add(5 * time.Second)
	for len(controlSince(start, 1, "conn drop")) == 0 || len(controlSince(start, 1, "conn install")) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no drop and redial recorded: drops %+v, installs %+v",
				controlSince(start, 1, "conn drop"), controlSince(start, 1, "conn install"))
		}
		time.Sleep(time.Millisecond)
	}
	drop := controlSince(start, 1, "conn drop")[0]
	if drop.Peer != 0 || drop.Arg != dropSiteHeader {
		t.Fatalf("drop = %+v, want peer 0 at the header-read site (%d)", drop, dropSiteHeader)
	}
	if redial := controlSince(start, 1, "conn install")[1]; redial.Peer != 0 || redial.Nanos < drop.Nanos {
		t.Fatalf("redial install = %+v, want toward rank 0 after the drop %+v", redial, drop)
	}
}

func TestTCPGetChecksum(t *testing.T) {
	nics := dialMesh(t, 2, Config{FragSize: 1024, Checksum: true})
	data := make([]byte, 10000)
	fillPattern(data, 9)
	key := nics[0].Register(Bytes(data))
	out := make([]byte, len(data))
	if err := nics[1].Get(0, key, 0, Bytes(out), 0, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("checksummed TCP Get mismatch")
	}
}

// TestTCPEpochDeathWithoutPriorSocket pins the evidence hole a fast
// respawn used to leave: a member of the original world that never held
// a socket to a rank's first incarnation recorded the replacement's epoch
// silently, so nothing ever told it the rank had died — the replacement
// answers heartbeats — and it waited for the dead incarnation in the next
// agreement forever (TestLaunchElastic hung that way once ring traffic
// got fast enough for the kill to land before the first probe round).
// Ranks that joined later, or that already revived the peer, stay silent.
func TestTCPEpochDeathWithoutPriorSocket(t *testing.T) {
	cases := []struct {
		name   string
		epoch  uint32 // the observing rank's own incarnation
		revive bool   // it revived the peer before first contact
		want   bool   // hard death evidence on first contact
	}{
		{"original member", 0, false, true},
		{"original member after revive", 0, true, false},
		{"late joiner", 1, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := freeAddrs(t, 2)
			cfg := Config{DialTimeout: 5 * time.Second}
			cfg.Epoch = tc.epoch
			a, err := NewTCP(0, addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			cfg.Epoch = 1 // rank 1 is a replacement; its first incarnation never spoke
			b, err := NewTCP(1, addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			hard := make(chan int, 4)
			a.SetPeerDownHook(func(peer int, isHard bool) {
				if isHard {
					hard <- peer
				}
			})
			if tc.revive {
				a.ReviveRank(1)
			}
			if err := a.Send(1, Header{Kind: 5, Total: 1}, []byte{1}); err != nil {
				t.Fatal(err)
			}
			// The verdict (and its epoch) is read before Send returns, so
			// the hook has fired by now if it ever will.
			select {
			case peer := <-hard:
				if !tc.want || peer != 1 {
					t.Fatalf("unexpected hard death evidence for rank %d", peer)
				}
			default:
				if tc.want {
					t.Fatal("first contact with a replacement produced no death evidence for its predecessor")
				}
			}
		})
	}
}
