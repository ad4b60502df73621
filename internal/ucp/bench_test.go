package ucp

import (
	"fmt"
	"testing"

	"mpicd/internal/fabric"
)

// benchPingpong times half-round-trips of (dt, bufs) between two in-process
// workers.
func benchPingpong(b *testing.B, cfg Config, dt Datatype, sbuf, rbuf any, count int64, bytes int64) {
	f := fabric.NewInproc(2, fabric.Config{})
	a := NewWorker(f.NIC(0), cfg)
	w := NewWorker(f.NIC(1), cfg)
	defer a.Close()
	defer w.Close()
	pingpong(b, a, w, dt, sbuf, rbuf, count, bytes, ProtoAuto)
}

// pingpong times half-round-trips of (dt, bufs) from a to w and back, both
// ways under proto.
func pingpong(b *testing.B, a, w *Worker, dt Datatype, sbuf, rbuf any, count, bytes int64, proto Proto) {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			rr, err := w.Recv(0, 1, ^Tag(0), dt, rbuf, count)
			if err == nil {
				err = rr.Wait()
			}
			if err != nil {
				done <- err
				return
			}
			sr, err := w.Send(0, 2, dt, rbuf, count, 0, proto)
			if err == nil {
				err = sr.Wait()
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.SetBytes(2 * bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := a.Send(1, 1, dt, sbuf, count, 0, proto)
		if err == nil {
			err = sr.Wait()
		}
		if err != nil {
			b.Fatal(err)
		}
		rr, err := a.Recv(1, 2, ^Tag(0), dt, sbuf, count)
		if err == nil {
			err = rr.Wait()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContigEagerVsRndv shows the protocol split around the
// threshold the paper's Figure 7 dip comes from. The 32768 and 32776 rows
// are the last eager size and the first rendezvous one: their difference
// is what the switch itself costs.
func BenchmarkContigEagerVsRndv(b *testing.B) {
	for _, size := range []int{1024, 16 * 1024, 32 * 1024, DefaultRndvThresh + 8, 64 * 1024, 1 << 20} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			sbuf := make([]byte, size)
			rbuf := make([]byte, size)
			benchPingpong(b, Config{}, Contig{}, sbuf, rbuf, int64(size), int64(size))
		})
	}
}

// BenchmarkIovRegions measures region-list transfers for few-large vs
// many-small shapes.
func BenchmarkIovRegions(b *testing.B) {
	const total = 1 << 20
	for _, regions := range []int{4, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("regions-%d", regions), func(b *testing.B) {
			mk := func() [][]byte {
				out := make([][]byte, regions)
				for i := range out {
					out[i] = make([]byte, total/regions)
				}
				return out
			}
			benchPingpong(b, Config{}, Iov{}, mk(), mk(), -1, total)
		})
	}
}

// BenchmarkProtoCrossover is where regionCharge comes from: a region-list
// ping-pong forced eager against the same one forced rendezvous, at sizes
// up to RndvThresh and 1 to 4 096 regions, per transport. Eager walks the
// list twice (gathered into fragments, scattered out of them), rendezvous
// once but pays its handshake, so at each size the eager row overtakes
// the rndv row at some region count n; ProtoAuto makes the same switch
// where size + (n−1)·regionCharge = RndvThresh. The in-process rows set
// the constant; the shm and tcp rows say how far their crossovers fall
// from it. The regions of one list are equal cuts of one array, walked as
// a datatype binding's region tail is (tailIov).
func BenchmarkProtoCrossover(b *testing.B) {
	transports := []struct {
		name string
		pair func(b *testing.B) (*Worker, *Worker)
	}{
		{"inproc", func(b *testing.B) (*Worker, *Worker) {
			f := fabric.NewInproc(2, fabric.Config{})
			tx, rx := NewWorker(f.NIC(0), Config{}), NewWorker(f.NIC(1), Config{})
			b.Cleanup(func() { tx.Close(); rx.Close() })
			return tx, rx
		}},
		{"shm", func(b *testing.B) (*Worker, *Worker) {
			dir := b.TempDir()
			var nics [2]fabric.NIC
			for i := range nics {
				nic, err := fabric.NewSHM(i, 2, dir, fabric.Config{})
				if err != nil {
					b.Skip(err)
				}
				nics[i] = nic
			}
			tx, rx := NewWorker(nics[0], Config{}), NewWorker(nics[1], Config{})
			b.Cleanup(func() { tx.Close(); rx.Close() })
			return tx, rx
		}},
		{"tcp", func(b *testing.B) (*Worker, *Worker) { return tcpPair(b, Config{}) }},
	}
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			tx, rx := tr.pair(b)
			for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10} {
				for _, regions := range []int{1, 2, 16, 64, 256, 1024, 4096} {
					// Built once, like core's pooled region scratch: a
					// message binds the list, it does not rebuild it.
					sbuf, rbuf := fabric.NewIov(cutRegions(size, regions)), fabric.NewIov(cutRegions(size, regions))
					for _, p := range []struct {
						name  string
						proto Proto
					}{{"eager", ProtoEager}, {"rndv", ProtoRndv}} {
						b.Run(fmt.Sprintf("%dKiB/%dregions/%s", size>>10, regions, p.name), func(b *testing.B) {
							pingpong(b, tx, rx, tailIov{}, sbuf, rbuf, -1, int64(size), p.proto)
						})
					}
				}
			}
		})
	}
}

// tailIov is a region list, a *fabric.Iov, handed to a transfer as a
// region tail from offset 0, the way core's binding hands over its
// regions: a pull walks it with a cursor instead of asking Window region
// by region, as it would the window-only Iov.
type tailIov struct{}

type tailIovState struct{ *fabric.Iov }

func (tailIovState) Finish() error                           { return nil }
func (s tailIovState) RegionTail(int64) (int64, *fabric.Iov) { return 0, s.Iov }
func (tailIov) SendState(buf any, _ int64) (SendState, error) {
	return tailIovState{buf.(*fabric.Iov)}, nil
}
func (tailIov) RecvState(buf any, _ int64, _ RecvInfo) (RecvState, error) {
	return tailIovState{buf.(*fabric.Iov)}, nil
}

// BenchmarkGenericCallbacks measures the callback-packed path against the
// contiguous fast path at the same size.
func BenchmarkGenericCallbacks(b *testing.B) {
	const size = 1 << 20
	ops := &xorOps{key: 0}
	sbuf := make([]byte, size)
	rbuf := make([]byte, size)
	b.Run("generic", func(b *testing.B) {
		benchPingpong(b, Config{}, Generic{Ops: ops}, sbuf, rbuf, size, size)
	})
	b.Run("contig", func(b *testing.B) {
		benchPingpong(b, Config{}, Contig{}, sbuf, rbuf, size, size)
	})
}

// BenchmarkMessageRate measures small-message throughput (matching-path
// overhead).
func BenchmarkMessageRate(b *testing.B) {
	sbuf := make([]byte, 8)
	rbuf := make([]byte, 8)
	benchPingpong(b, Config{}, Contig{}, sbuf, rbuf, 8, 8)
}

// BenchmarkRndvWindow is the rendezvous rate cell without the bench harness:
// a 64-deep window of ProtoRndv messages one way, closed by a 1-byte ack, so
// ns/op and allocs/op are per message, both ranks included. The receiver
// posts as the window arrives, so part of each burst is unexpected. 8212 is
// the size of the benchmark's regions-large rate cell; the 256 KiB variant
// stripes every pull two ways; the tcp variant is the same window over
// loopback sockets, where a Get is a round trip and the pullers are not capped.
func BenchmarkRndvWindow(b *testing.B) {
	const window = 64
	for _, c := range []struct {
		name string
		size int
		cfg  Config
		tcp  bool
	}{
		{"8212B", 8212, Config{}, false},
		{"256KiB-striped", 256 << 10, Config{PullStripes: 2}, false},
		{"8212B-tcp", 8212, Config{}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var tx, rx *Worker
			if c.tcp {
				tx, rx = tcpPair(b, c.cfg)
			} else {
				f := fabric.NewInproc(2, fabric.Config{})
				tx, rx = NewWorker(f.NIC(0), c.cfg), NewWorker(f.NIC(1), c.cfg)
				defer tx.Close()
				defer rx.Close()
			}
			var sbuf, rbuf any = make([]byte, c.size), make([]byte, c.size)
			var ack any = make([]byte, 1)
			n := int64(c.size)
			windows := (b.N + window - 1) / window
			done := make(chan error, 1)
			go func() {
				reqs := make([]*Request, window)
				for i := 0; i < windows; i++ {
					for k := range reqs {
						r, err := rx.Recv(0, 1, exactMask, Contig{}, rbuf, n)
						if err != nil {
							done <- err
							return
						}
						reqs[k] = r
					}
					err := WaitAll(reqs...)
					if err == nil {
						var sr *Request
						if sr, err = rx.Send(0, 2, Contig{}, ack, 1, 0, ProtoEager); err == nil {
							err = sr.Wait()
						}
					}
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			reqs := make([]*Request, window+1)
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < windows; i++ {
				for k := 0; k < window; k++ {
					r, err := tx.Send(1, 1, Contig{}, sbuf, n, 0, ProtoRndv)
					if err != nil {
						b.Fatal(err)
					}
					reqs[k] = r
				}
				r, err := tx.Recv(1, 2, exactMask, Contig{}, ack, 1)
				if err != nil {
					b.Fatal(err)
				}
				reqs[window] = r
				if err := WaitAll(reqs...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			if c.cfg.PullStripes > 1 && rx.Stats().StripedPulls.Load() == 0 {
				b.Fatal("no pull was striped")
			}
		})
	}
}
