//go:build linux || darwin

package ucp

import (
	"bytes"
	"testing"

	"mpicd/internal/fabric"
)

// TestSHMNonOvertaking pins MPI's non-overtaking rule over the SHM
// provider: two messages from one sender with one tag match the receives
// posted for them in send order. Each round posts two receives, then sends
// a 20 KiB eager message (two fragments) and a 100 B one; the first receive
// must get the 20 KiB. With fragments on the socket and single frames on
// the ring, the 100 B message won about 1 800 rounds in 2 000.
func TestSHMNonOvertaking(t *testing.T) {
	dir := t.TempDir()
	var nics [2]*fabric.SHM
	for i := range nics {
		nic, err := fabric.NewSHM(i, 2, dir, fabric.Config{})
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = nic
	}
	a, b := NewWorker(nics[0], Config{}), NewWorker(nics[1], Config{})
	t.Cleanup(func() { a.Close(); b.Close() })
	big, small := pattern(20<<10, 1), pattern(100, 2)
	first, second := make([]byte, len(big)), make([]byte, len(big))
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	overtaken := 0
	for i := 0; i < rounds; i++ {
		r1, err := b.Recv(0, 1, exactMask, Contig{}, first, int64(len(first)))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := b.Recv(0, 1, exactMask, Contig{}, second, int64(len(second)))
		if err != nil {
			t.Fatal(err)
		}
		s1, err := a.Send(1, 1, Contig{}, big, int64(len(big)), 0, ProtoEager)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := a.Send(1, 1, Contig{}, small, int64(len(small)), 0, ProtoEager)
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(s1, s2, r1, r2); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		_, _, n1 := r1.Status()
		_, _, n2 := r2.Status()
		switch {
		case n1 == int64(len(small)) && n2 == int64(len(big)):
			overtaken++
		case n1 != int64(len(big)) || n2 != int64(len(small)) ||
			!bytes.Equal(first, big) || !bytes.Equal(second[:len(small)], small):
			t.Fatalf("round %d: receives got %d and %d bytes, intact %v", i, n1, n2,
				bytes.Equal(first, big) && bytes.Equal(second[:len(small)], small))
		}
	}
	if overtaken > 0 {
		t.Fatalf("the 100 B message overtook the 20 KiB one sent before it in %d of %d rounds", overtaken, rounds)
	}
}
