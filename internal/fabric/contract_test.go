package fabric

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every provider and wrapper implements the whole NIC contract,
// Membership included.
var (
	_ NIC = (*stream)(nil)
	_ NIC = (*TCP)(nil)
	_ NIC = (*SHM)(nil)
	_ NIC = (*inprocNIC)(nil)
	_ NIC = (*FaultNIC)(nil)
)

// recordingNIC is a provider that counts the membership calls reaching it.
type recordingNIC struct {
	NIC
	down, revive, addr, hook int
}

func (r *recordingNIC) DeclareRankDown(int)             { r.down++ }
func (r *recordingNIC) ReviveRank(int)                  { r.revive++ }
func (r *recordingNIC) UpdateAddr(int, string) error    { r.addr++; return nil }
func (r *recordingNIC) SetPeerDownHook(func(int, bool)) { r.hook++ }

// TestFaultPlanLink: a fault wrapper states its provider's link, lossy as
// soon as its plan can break "once, in order, intact" toward a live peer —
// drop, duplicate, reorder, corrupt, truncate, flap a link or kill a rank —
// and unchanged by rules that only delay or fail Gets, or that can never
// fire. Every FaultAction has a row.
func TestFaultPlanLink(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	inner := f.NIC(0).Link()
	lossy := map[FaultAction]bool{
		Drop: true, Duplicate: true, Reorder: true, Delay: false, Corrupt: true,
		Truncate: true, FailGet: false, LinkDown: true, Kill: true,
	}
	for a := FaultAction(0); !strings.HasPrefix(a.String(), "FaultAction("); a++ {
		loses, ok := lossy[a]
		if !ok {
			t.Errorf("fault action %v has no row: say whether it makes the link lossy", a)
			continue
		}
		for _, prob := range []float64{0, 0.01, 1} {
			fn := WrapFault(f.NIC(0), FaultPlan{Rules: []FaultRule{{Peer: 1, Action: a, Prob: prob, Down: 3, Count: 1}}})
			want := inner
			want.Lossless = !loses || prob == 0
			if got := fn.Link(); got != want {
				t.Errorf("%v at probability %v: link %+v, want %+v", a, prob, got, want)
			}
		}
	}
	if got := WrapFault(f.NIC(0), FaultPlan{}).Link(); got != inner {
		t.Errorf("an empty plan: link %+v, want the provider's %+v", got, inner)
	}
	fn := WrapFault(f.NIC(0), FaultPlan{})
	fn.DisableRule(fn.AddRule(FaultRule{Peer: -1, Action: Drop, Prob: 1}))
	if !fn.Link().Lossless {
		t.Error("a disabled drop rule made the link lossy")
	}
}

// TestNICPairOrder pins the order half of Link: every frame a Send accepted
// for a peer reaches the peer's Recv (or its Handoff handler) after every
// frame accepted before it for that peer. Two sender goroutines of one rank
// each send a sequence that interleaves fragment-shaped frames (Offset > 0,
// or Total > the payload) with whole ones, of several sizes; each sequence
// must arrive in order and whole, on every provider: inproc with its
// Handoff taken, TCP, SHM from first contact (the switch from socket to
// ring happens mid-stream) and after the switch, and a fault wrapper with
// no rules.
func TestNICPairOrder(t *testing.T) {
	inproc := func(t *testing.T) (NIC, NIC) {
		f := NewInproc(2, Config{})
		t.Cleanup(f.Close)
		return f.NIC(0), f.NIC(1)
	}
	cases := []nicPair{
		{"inproc", inproc},
		{"tcp", func(t *testing.T) (NIC, NIC) {
			nics := dialMesh(t, 2, Config{})
			return nics[0], nics[1]
		}},
		{"fault-no-rules", func(t *testing.T) (NIC, NIC) {
			tx, rx := inproc(t)
			return WrapFault(tx, FaultPlan{Seed: 1}), WrapFault(rx, FaultPlan{Seed: 2})
		}},
	}
	for _, c := range append(cases, shmPairs()...) {
		t.Run(c.name, func(t *testing.T) {
			tx, rx := c.pair(t)
			pairOrder(t, tx, rx, c.name == "inproc" || c.name == "fault-no-rules")
		})
	}
}

// nicPair names a constructor of a connected sender and receiver.
type nicPair struct {
	name string
	pair func(t *testing.T) (tx, rx NIC)
}

// pairOrder runs TestNICPairOrder's exchange from tx (rank 0) to rx (rank
// 1); handoff says whether rx must take a consumer's Handoff.
func pairOrder(t *testing.T, tx, rx NIC, handoff bool) {
	const senders, frames = 2, 1500
	var (
		mu    sync.Mutex // the consumer's progress lock
		next  [senders]uint64
		taken int
		bad   error
		done  = make(chan struct{})
	)
	handle := func(pkt *Packet) {
		s, seq := pkt.Hdr.Tag>>32, pkt.Hdr.Tag&(1<<32-1)
		want := pairFrame(s, seq)
		switch {
		case bad != nil:
		case s >= senders || pkt.From != 0:
			bad = fmt.Errorf("frame from rank %d with tag %#x: no sender of this test", pkt.From, pkt.Hdr.Tag)
		case seq != next[s]:
			bad = fmt.Errorf("sender %d: frame %d arrived where frame %d was due", s, seq, next[s])
		case pkt.Hdr != want.hdr || !bytes.Equal(pkt.Payload, want.payload):
			bad = fmt.Errorf("sender %d: frame %d arrived altered: %+v, %d bytes", s, seq, pkt.Hdr, len(pkt.Payload))
		}
		if s < senders {
			next[s]++
		}
		pkt.Release()
		if taken++; taken == senders*frames || bad != nil {
			select {
			case <-done:
			default:
				close(done)
			}
		}
	}
	if took := rx.Handoff(&mu, handle); took != handoff {
		t.Fatalf("Handoff taken: %v, want %v", took, handoff)
	}
	go func() {
		for {
			pkt, ok := rx.Recv()
			if !ok {
				return
			}
			mu.Lock()
			handle(pkt)
			mu.Unlock()
		}
	}()
	errs := make(chan error, senders)
	for s := uint64(0); s < senders; s++ {
		go func() {
			for seq := uint64(0); seq < frames; seq++ {
				f := pairFrame(s, seq)
				if err := tx.Send(1, f.hdr, f.payload); err != nil {
					errs <- fmt.Errorf("sender %d, frame %d: %w", s, seq, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range senders {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d accepted frames arrived", taken, senders*frames)
	}
	mu.Lock()
	defer mu.Unlock()
	if bad != nil {
		t.Fatal(bad)
	}
	// The receive loop is still in Recv: the NICs' cleanup ends it.
}

type orderFrame struct {
	hdr     Header
	payload []byte
}

// pairFrame is frame seq of sender s: one in three a whole frame, one a
// leading fragment (Total > the payload), one a later fragment (Offset > 0),
// of 1 to 900 bytes.
func pairFrame(s, seq uint64) orderFrame {
	n := int(1 + (seq*131+s*17)%900)
	hdr := Header{Kind: 5, Tag: s<<32 | seq, MsgID: seq, Total: int64(n)}
	switch seq % 3 {
	case 1:
		hdr.Total += 4096
	case 2:
		hdr.Offset, hdr.Total = 4096, hdr.Total+4096
	}
	p := make([]byte, n)
	fillPattern(p, byte(s*7+seq))
	return orderFrame{hdr, p}
}

// TestHandoffContract: the in-process provider takes a consumer's Handoff
// and a fault wrapper passes it on by embedding, so a packet for an idle
// fault-wrapped consumer is handled before its Send returns; the
// byte-stream providers, TCP and SHM, decline it.
func TestHandoffContract(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	var s handoffSink
	if !WrapFault(f.NIC(1), FaultPlan{}).Handoff(&s.mu, s.handle) {
		t.Fatal("a fault wrapper declined the Handoff its provider takes")
	}
	if err := f.NIC(0).Send(1, Header{MsgID: 7}); err != nil {
		t.Fatal(err)
	}
	if s.handled() != 1 {
		t.Fatal("a packet for an idle fault-wrapped consumer was not handed over")
	}
	var mu sync.Mutex
	for name, nic := range map[string]NIC{"TCP": &TCP{}, "SHM": &SHM{}} {
		if nic.Handoff(&mu, s.handle) {
			t.Errorf("%s took a Handoff", name)
		}
	}
}

// TestMembershipReachesProviderThroughWrappers pins the reason Membership
// is mandatory: a death verdict, revival, address update or hook
// installation made on the outermost wrapper must reach the provider
// exactly once, whatever decorators sit in between.
func TestMembershipReachesProviderThroughWrappers(t *testing.T) {
	fault := func(n NIC) NIC { return WrapFault(n, FaultPlan{}) }
	for _, tc := range []struct {
		name string
		wrap func(NIC) NIC
	}{
		{"FaultNIC", fault},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewInproc(2, Config{})
			defer f.Close()
			rec := &recordingNIC{NIC: f.NIC(0)}
			nic := tc.wrap(rec)
			nic.DeclareRankDown(1)
			nic.ReviveRank(1)
			if err := nic.UpdateAddr(1, "x"); err != nil {
				t.Fatal(err)
			}
			nic.SetPeerDownHook(func(int, bool) {})
			if rec.down != 1 || rec.revive != 1 || rec.addr != 1 || rec.hook != 1 {
				t.Fatalf("provider saw DeclareRankDown=%d ReviveRank=%d UpdateAddr=%d SetPeerDownHook=%d, want 1 each",
					rec.down, rec.revive, rec.addr, rec.hook)
			}
		})
	}
}
