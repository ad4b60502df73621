package fabric

import (
	"fmt"
	"testing"
)

// Benchmarks documenting the copy economics of the fabric: eager sends
// pay staging copies, Get pulls move bytes directly between direct
// endpoints, and generic endpoints add callback passes.

func BenchmarkInprocSendRecv(b *testing.B) {
	for _, size := range []int{64, 4096, 16384} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			f := NewInproc(2, Config{})
			defer f.Close()
			payload := make([]byte, size)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					pkt, ok := f.NIC(1).Recv()
					if !ok {
						return
					}
					pkt.Release()
				}
			}()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.NIC(0).Send(1, Header{}, payload); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// benchGet times a Get of n bytes from src into sink and, where the source
// is a region list, what one of its regions costs.
func benchGet(b *testing.B, src Source, sink Sink, n int64) {
	f := NewInproc(2, Config{})
	defer f.Close()
	key := f.NIC(0).Register(src)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.NIC(1).Get(0, key, 0, sink, 0, n); err != nil {
			b.Fatal(err)
		}
	}
	if rc, ok := src.(RegionCounter); ok && rc.NumRegions() > 1 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rc.NumRegions()), "ns/region")
	}
}

// tinyRegions is count regions of size bytes each, apart in memory.
func tinyRegions(count, size int) *Iov {
	mem := make([]byte, 2*count*size)
	regions := make([][]byte, count)
	for i := range regions {
		regions[i] = mem[2*i*size : (2*i+1)*size]
	}
	return NewIov(regions)
}

func BenchmarkGetDirectToDirect(b *testing.B) {
	const n = 1 << 20
	benchGet(b, Bytes(make([]byte, n)), Bytes(make([]byte, n)), n)
}

func BenchmarkGetIovToDirect(b *testing.B) {
	const n = 1 << 20
	regions := make([][]byte, 256)
	for i := range regions {
		regions[i] = make([]byte, n/256)
	}
	benchGet(b, NewIov(regions), Bytes(make([]byte, n)), n)
}

func BenchmarkGetManyTinyRegions(b *testing.B) {
	// The NAS_MG_x shape: thousands of 8-byte regions.
	const n = 1 << 17
	regions := make([][]byte, n/8)
	for i := range regions {
		regions[i] = make([]byte, 8)
	}
	benchGet(b, NewIov(regions), Bytes(make([]byte, n)), n)
}

// BenchmarkGetManyTinyRegionsIov is the same shape on both ends: region
// list to region list, as a custom-regions receive of NAS_MG_x lands.
func BenchmarkGetManyTinyRegionsIov(b *testing.B) {
	const n = 1 << 17
	benchGet(b, tinyRegions(n/8, 8), tinyRegions(n/8, 8), n)
}

// BenchmarkGetNASLUyShape is NAS_LU_y's face at scale 2 on both ends:
// 1 024 runs of 40 bytes.
func BenchmarkGetNASLUyShape(b *testing.B) {
	const count, size = 1024, 40
	benchGet(b, tinyRegions(count, size), tinyRegions(count, size), count*size)
}

func BenchmarkGetGenericBounce(b *testing.B) {
	const n = 1 << 20
	src := nonDirectSource{Bytes(make([]byte, n))}
	sink := nonDirectSink{Bytes(make([]byte, n))}
	benchGet(b, src, sink, n)
}

func BenchmarkTransferLoopback(b *testing.B) {
	const n = 1 << 20
	src := Bytes(make([]byte, n))
	dst := Bytes(make([]byte, n))
	bounce := make([]byte, DefaultFragSize)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Transfer(src, 0, dst, 0, n, bounce); err != nil {
			b.Fatal(err)
		}
	}
}
