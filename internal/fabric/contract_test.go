package fabric

import (
	"sync"
	"testing"
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
// soon as its plan can lose a packet to a live peer — drop, corrupt,
// truncate, flap a link or kill a rank — and unchanged by rules that only
// delay, duplicate, reorder or fail Gets, or that can never fire.
func TestFaultPlanLink(t *testing.T) {
	f := NewInproc(2, Config{})
	defer f.Close()
	inner := f.NIC(0).Link()
	for _, tc := range []struct {
		rules    []FaultRule
		lossless bool
	}{
		{nil, true},
		{[]FaultRule{{Peer: -1, Action: Delay, Prob: 1}, {Peer: -1, Action: Duplicate, Prob: 1}, {Peer: -1, Action: Reorder, Prob: 1}, {Peer: -1, Action: FailGet, Prob: 1}}, true},
		{[]FaultRule{{Peer: -1, Action: Drop, Prob: 0}}, true},
		{[]FaultRule{{Peer: -1, Action: Drop, Prob: 0.01}}, false},
		{[]FaultRule{{Peer: 1, Action: Corrupt, Prob: 1}}, false},
		{[]FaultRule{{Peer: -1, Action: Truncate, Prob: 1}}, false},
		{[]FaultRule{{Peer: -1, Action: LinkDown, Prob: 1, Down: 3}}, false},
		{[]FaultRule{{Peer: -1, Action: Kill, Prob: 1, Count: 1}}, false},
	} {
		fn := WrapFault(f.NIC(0), FaultPlan{Rules: tc.rules})
		want := inner
		want.Lossless = tc.lossless
		if got := fn.Link(); got != want {
			t.Errorf("plan %+v: link %+v, want %+v", tc.rules, got, want)
		}
	}
	fn := WrapFault(f.NIC(0), FaultPlan{})
	fn.DisableRule(fn.AddRule(FaultRule{Peer: -1, Action: Drop, Prob: 1}))
	if !fn.Link().Lossless {
		t.Error("a disabled drop rule made the link lossy")
	}
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
