package ucp

import (
	"bytes"
	"testing"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// Allocation ceilings per one-way SHM rendezvous, both ranks and both
// progress goroutines included: measured (10 and 16) + 2. A contiguous
// buffer pays the two Requests, what the send keeps until its FIN, six for
// the RTS and FIN frames the socket writes, and one in the provider: the
// registration that stands in for the source.
// head + 2 regions adds what this file's datatype allocates to bind a
// buffer, three a side, and nothing in the provider: the region list, the
// staged head, both iovec lists of the Get and its bounce buffer are
// pooled, however many regions a message has.
const (
	shmRndvContigAllocCeiling      = 12
	shmRndvHeadRegionsAllocCeiling = 18
)

// headRegions is a test-local datatype with the shape of a custom one: a
// head only callbacks reach, then two regions. The buffer is the three
// slices.
type headRegions struct{}

type headRegionsState struct {
	head []byte
	tail fabric.Iov
}

func (headRegions) bind(buf any) *headRegionsState {
	parts := buf.([3][]byte)
	return &headRegionsState{head: parts[0], tail: *fabric.NewIov(parts[1:])}
}

func (d headRegions) SendState(buf any, _ int64) (SendState, error) { return d.bind(buf), nil }
func (d headRegions) RecvState(buf any, _ int64, _ RecvInfo) (RecvState, error) {
	return d.bind(buf), nil
}

func (s *headRegionsState) Size() int64   { return int64(len(s.head)) + s.tail.Size() }
func (s *headRegionsState) Finish() error { return nil }

func (s *headRegionsState) ReadAt(dst []byte, off int64) (int, error) {
	n := 0
	if off < int64(len(s.head)) {
		if n = copy(dst, s.head[off:]); n == len(dst) {
			return n, nil
		}
	}
	m, err := s.tail.ReadAt(dst[n:], off+int64(n)-int64(len(s.head)))
	return n + m, err
}

func (s *headRegionsState) WriteAt(src []byte, off int64) (int, error) {
	n := 0
	if off < int64(len(s.head)) {
		if n = copy(s.head[off:], src); n == len(src) {
			return n, nil
		}
	}
	m, err := s.tail.WriteAt(src[n:], off+int64(n)-int64(len(s.head)))
	return n + m, err
}

func (s *headRegionsState) Window(off, n int64) ([]byte, bool) {
	if off < int64(len(s.head)) {
		return nil, false
	}
	return s.tail.Window(off-int64(len(s.head)), n)
}

// TestSHMRndvAllocsPerMessage pins what a rendezvous over the SHM
// provider's in-place path allocates, next to TestEagerAllocsPerMessage:
// the exporter's table build and the requester's lists and bounce buffer
// must stay pooled however many regions a message has.
func TestSHMRndvAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	dir, reg := t.TempDir(), obs.NewRegistry()
	nics := make([]*fabric.SHM, 2)
	for i := range nics {
		nic, err := fabric.NewSHM(i, 2, dir, fabric.Config{Obs: &obs.Observer{Registry: reg}})
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = nic
	}
	cfg := Config{PullStripes: 1} // one Get a message on any host
	a, b := NewWorker(nics[0], cfg), NewWorker(nics[1], cfg)
	t.Cleanup(func() { a.Close(); b.Close() })

	const size = 256 << 10
	three := func(p []byte) [3][]byte { return [3][]byte{p[:100:100], p[100 : size/2 : size/2], p[size/2:]} }
	data, out := pattern(size, 5), make([]byte, size)
	cases := []struct {
		name       string
		dt         Datatype
		sbuf, rbuf any
		ceiling    float64
	}{
		{"contiguous", Contig{}, data, out, shmRndvContigAllocCeiling},
		{"head+2regions", headRegions{}, three(data), three(out), shmRndvHeadRegionsAllocCeiling},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			oneWay := func() {
				rr, err := b.Recv(0, 1, exactMask, c.dt, c.rbuf, size)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := a.Send(1, 1, c.dt, c.sbuf, size, 0, ProtoRndv)
				if err != nil {
					t.Fatal(err)
				}
				if err := WaitAll(sr, rr); err != nil {
					t.Fatal(err)
				}
			}
			clear(out)
			oneWay() // first contact: dial, ring handshake, table mapping
			if !bytes.Equal(out, data) {
				t.Fatal("payload differs")
			}
			inPlace := reg.Snapshot().Gauges["fabric.r1.shm_cma_pulls"]
			avg := testing.AllocsPerRun(100, oneWay)
			t.Logf("%s: %.1f allocs per one-way SHM rendezvous", c.name, avg)
			if got := reg.Snapshot().Gauges["fabric.r1.shm_cma_pulls"] - inPlace; got < 101 {
				t.Skipf("%d of 101 pulls read the sender in place: process_vm_readv is refused on this host", got)
			}
			if avg > c.ceiling {
				t.Fatalf("%s allocates %.1f per message, ceiling %.0f", c.name, avg, c.ceiling)
			}
		})
	}
}
