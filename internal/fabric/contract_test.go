package fabric

import "testing"

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
