// Ablation benchmark for the integrity machinery added with the fault
// tolerance work: what does checksumming cost when nothing goes wrong?
//
// One switch, fabric.Config.Checksum, drives two distinct mechanisms,
// measured separately. On byte-stream (TCP) fabrics it adds a CRC32C over
// every rendezvous pull frame. On the transport layer it adds a CRC32C to
// eager fragment headers — which also forces the eager path to stage
// fragments instead of streaming them zero-copy, so its cost is staging +
// CRC.
package mpicd_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// benchTCPContig ping-pongs a contiguous buffer between two TCP ranks on
// loopback and reports bandwidth.
func benchTCPContig(b *testing.B, size int, fcfg fabric.Config, ucfg ucp.Config) {
	b.Helper()
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	nics := make([]*fabric.TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nics[i], errs[i] = fabric.NewTCP(i, addrs, fcfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("rank %d: %v", i, err)
		}
	}
	comms := make([]*core.Comm, 2)
	for i := range comms {
		comms[i] = core.NewComm(ucp.NewWorker(nics[i], ucfg))
	}
	defer func() {
		for _, c := range comms {
			c.Worker().Close()
		}
	}()

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 13)
	}
	iters := b.N
	done := make(chan error, 1)
	go func() {
		c := comms[1]
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			if _, err := c.Recv(buf, -1, core.TypeBytes, 0, 1); err != nil {
				done <- err
				return
			}
			if err := c.Send(buf, -1, core.TypeBytes, 0, 2); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c := comms[0]
	out := make([]byte, size)
	b.SetBytes(2 * int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(data, -1, core.TypeBytes, 1, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(out, -1, core.TypeBytes, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		b.Fatal("roundtrip mismatch")
	}
}

// benchInproc ping-pongs a contiguous buffer over the in-process fabric
// under the given transport config.
func benchInproc(b *testing.B, size int, fcfg fabric.Config, ucfg ucp.Config) {
	b.Helper()
	sys := core.NewSystem(2, core.Options{Fabric: fcfg, UCP: ucfg})
	defer sys.Close()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 13)
	}
	iters := b.N
	done := make(chan error, 1)
	go func() {
		c := sys.Comm(1)
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			if _, err := c.Recv(buf, -1, core.TypeBytes, 0, 1); err != nil {
				done <- err
				return
			}
			if err := c.Send(buf, -1, core.TypeBytes, 0, 2); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c := sys.Comm(0)
	out := make([]byte, size)
	b.SetBytes(2 * int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(data, -1, core.TypeBytes, 1, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(out, -1, core.TypeBytes, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationChecksum measures the no-fault cost of integrity
// checking. The headline number is the 4 MiB contiguous rendezvous over
// TCP with pull-frame CRCs on versus off (acceptance target: <10%
// bandwidth cost); the eager sub-benchmarks price the transport-level
// fragment CRC, whose cost includes the forced staging copy.
func BenchmarkAblationChecksum(b *testing.B) {
	// The headline: 4 MiB contiguous through the default protocol choice
	// (rendezvous) with every checksum knob on versus off. On the
	// in-process fabric the pull is a memory move with nothing to
	// checksum, so integrity costs nothing on this path by construction.
	b.Run("inproc-rndv", func(b *testing.B) {
		for _, size := range []int{1 << 20, 4 << 20} {
			for _, crc := range []bool{false, true} {
				b.Run(fmt.Sprintf("size-%dK/crc-%v", size/1024, crc), func(b *testing.B) {
					benchInproc(b, size, fabric.Config{Checksum: crc}, ucp.Config{})
				})
			}
		}
	})
	b.Run("tcp-rndv", func(b *testing.B) {
		for _, size := range []int{1 << 20, 4 << 20} {
			for _, crc := range []bool{false, true} {
				b.Run(fmt.Sprintf("size-%dK/crc-%v", size/1024, crc), func(b *testing.B) {
					benchTCPContig(b, size, fabric.Config{Checksum: crc}, ucp.Config{})
				})
			}
		}
	})
	b.Run("inproc-eager", func(b *testing.B) {
		for _, size := range []int{64 << 10, 1 << 20} {
			for _, crc := range []bool{false, true} {
				b.Run(fmt.Sprintf("size-%dK/crc-%v", size/1024, crc), func(b *testing.B) {
					benchInproc(b, size, fabric.Config{Checksum: crc}, ucp.Config{RndvThresh: 1 << 30})
				})
			}
		}
	})
}
