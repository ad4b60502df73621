package ucp

import (
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// The stats counters make protocol selection observable: these tests pin
// down which path each message class takes.

func TestStatsEagerVsRndvSelection(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{RndvThresh: 32 * 1024})
	out := make([]byte, 1<<20)

	send := func(n int) {
		t.Helper()
		rr, _ := b.Recv(0, 1, exactMask, Contig{}, out[:n], -1)
		sr, err := a.Send(1, 1, Contig{}, out[:n], int64(n), 0, ProtoAuto)
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(sr, rr); err != nil {
			t.Fatal(err)
		}
	}

	send(1024) // below threshold
	if got := a.Stats().EagerSends.Load(); got != 1 {
		t.Fatalf("eager sends = %d", got)
	}
	if got := a.Stats().RndvSends.Load(); got != 0 {
		t.Fatalf("rndv sends = %d", got)
	}
	send(1 << 20) // above threshold
	if got := a.Stats().RndvSends.Load(); got != 1 {
		t.Fatalf("rndv sends = %d", got)
	}
	if got := b.Stats().PostedHits.Load(); got != 2 {
		t.Fatalf("posted hits = %d", got)
	}
}

// TestStatsRegionCharge pins ProtoAuto's one rule: a region list is its
// bytes plus regionCharge for each region past its first, against
// RndvThresh. Two 8 KiB regions are far below it and go eager; 16 KiB cut
// into as many regions as bring the charged size to RndvThresh still goes
// eager, and one region more goes by rendezvous.
func TestStatsRegionCharge(t *testing.T) {
	const size = 16 << 10
	atThresh := int((DefaultRndvThresh-size)/regionCharge) + 1 // size + (n−1)·charge = RndvThresh
	for _, c := range []struct {
		name    string
		regions [][]byte
		rndv    bool
	}{
		{"two-8KiB-regions", [][]byte{make([]byte, 8<<10), make([]byte, 8<<10)}, false},
		{"charged-to-thresh", cutRegions(size, atThresh), false},
		{"charged-past-thresh", cutRegions(size, atThresh+1), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := pair(t, fabric.Config{}, Config{})
			rr, _ := b.Recv(0, 1, exactMask, Iov{}, [][]byte{make([]byte, size)}, -1)
			sr, err := a.Send(1, 1, Iov{}, c.regions, -1, 0, ProtoAuto)
			if err != nil {
				t.Fatal(err)
			}
			if err := WaitAll(sr, rr); err != nil {
				t.Fatal(err)
			}
			if rndv := a.Stats().RndvSends.Load() == 1; rndv != c.rndv {
				t.Fatalf("%d regions of %d bytes: rendezvous %v, want %v", len(c.regions), size, rndv, c.rndv)
			}
		})
	}
}

func TestStatsEagerFragmentCount(t *testing.T) {
	a, b := pair(t, fabric.Config{FragSize: 1024}, Config{RndvThresh: 1 << 20})
	data := make([]byte, 10*1024)
	out := make([]byte, len(data))
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, -1)
	sr, _ := a.Send(1, 1, Contig{}, data, -1, 0, ProtoAuto)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().EagerFragments.Load(); got != 10 {
		t.Fatalf("fragments = %d, want 10", got)
	}
}

func TestStatsUnexpectedHit(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	sr, _ := a.Send(1, 1, Contig{}, []byte{1}, 1, 0, ProtoAuto)
	if err := sr.Wait(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	out := make([]byte, 1)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, 1)
	if err := rr.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().UnexpectedHits.Load(); got != 1 {
		t.Fatalf("unexpected hits = %d", got)
	}
	if got := b.Stats().PostedHits.Load(); got != 0 {
		t.Fatalf("posted hits = %d", got)
	}
}

func TestStatsSelfSend(t *testing.T) {
	f := fabric.NewInproc(1, fabric.Config{})
	w := NewWorker(f.NIC(0), Config{})
	defer w.Close()
	out := make([]byte, 4)
	rr, _ := w.Recv(0, 1, exactMask, Contig{}, out, -1)
	sr, _ := w.Send(0, 1, Contig{}, []byte{1, 2, 3, 4}, -1, 0, ProtoAuto)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().SelfSends.Load(); got != 1 {
		t.Fatalf("self sends = %d", got)
	}
}
