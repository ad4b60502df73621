package ucp

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"mpicd/internal/fabric"
)

// tcpPair brings up two workers over a real-socket fabric.
func tcpPair(t testing.TB, cfg Config) (*Worker, *Worker) {
	t.Helper()
	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
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
	nics := make([]*fabric.TCP, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nics[i], errs[i] = fabric.NewTCP(i, addrs, fabric.Config{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	a := NewWorker(nics[0], cfg)
	b := NewWorker(nics[1], cfg)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPWorkerEagerAndRndv(t *testing.T) {
	a, b := tcpPair(t, Config{RndvThresh: 8 * 1024})
	for _, size := range []int{0, 100, 4096, 8192, 100000, 1 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			data := pattern(size, byte(size))
			out := make([]byte, size)
			rr, err := b.Recv(0, 1, exactMask, Contig{}, out, -1)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := a.Send(1, 1, Contig{}, data, -1, 0, ProtoAuto)
			if err != nil {
				t.Fatal(err)
			}
			if err := WaitAll(sr, rr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("tcp transfer mismatch")
			}
		})
	}
}

func TestTCPWorkerIovRendezvous(t *testing.T) {
	// Region lists over sockets: the pull protocol runs as GET
	// request/response frames.
	a, b := tcpPair(t, Config{RndvThresh: 4096})
	parts := [][]byte{pattern(10000, 1), pattern(50000, 2), pattern(7, 3)}
	var want []byte
	for _, p := range parts {
		want = append(want, p...)
	}
	dst := [][]byte{make([]byte, 30000), make([]byte, 30007)}
	rr, err := b.Recv(0, 2, exactMask, Iov{}, dst, -1)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := a.Send(1, 2, Iov{}, parts, -1, 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte{}, dst[0]...), dst[1]...)
	if !bytes.Equal(got, want) {
		t.Fatal("tcp iov mismatch")
	}
}

func TestTCPWorkerGenericCallbacks(t *testing.T) {
	a, b := tcpPair(t, Config{RndvThresh: 4096})
	ops := &xorOps{key: 0x3C}
	data := pattern(200000, 4)
	out := make([]byte, len(data))
	rr, _ := b.Recv(0, 3, exactMask, Generic{Ops: ops}, out, int64(len(data)))
	sr, err := a.Send(1, 3, Generic{Ops: ops}, data, int64(len(data)), 0, ProtoAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("tcp generic mismatch")
	}
}

func TestTCPWorkerBidirectional(t *testing.T) {
	a, b := tcpPair(t, Config{})
	const iters = 20
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	pingpong := func(w *Worker, peer int, base byte) {
		defer wg.Done()
		buf := pattern(8192, base)
		out := make([]byte, 8192)
		for i := 0; i < iters; i++ {
			sr, err := w.Send(peer, 5, Contig{}, buf, -1, 0, ProtoAuto)
			if err == nil {
				err = sr.Wait()
			}
			if err != nil {
				errc <- err
				return
			}
			rr, err := w.Recv(peer, 5, exactMask, Contig{}, out, -1)
			if err == nil {
				err = rr.Wait()
			}
			if err != nil {
				errc <- err
				return
			}
		}
	}
	wg.Add(2)
	go pingpong(a, 1, 1)
	go pingpong(b, 0, 2)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
