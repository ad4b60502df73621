// doublevec demonstrates the paper's double-vector type (Vec<Vec<i32>>):
// a dynamic list of heap vectors. With classic derived datatypes this
// requires per-message datatype recreation and address arithmetic; with
// the custom API the lengths travel as a packed header and every
// subvector rides the wire as a zero-copy memory region — the receiver
// allocates from the unpacked header, shape unseen in advance.
//
// The example also times the custom transfer against manual packing to
// show where each wins (run with realistic sizes: it sweeps a few).
//
// Run with: go run ./examples/doublevec
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"mpicd/internal/workloads"
	"mpicd/mpi"
)

func main() {
	err := mpi.Run(2, mpi.Options{}, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		dt := workloads.DoubleVecCustom()

		// Correctness: an irregular double-vector the receiver has never
		// seen the shape of.
		if c.Rank() == 0 {
			send := [][]byte{
				bytes.Repeat([]byte{1}, 10),
				bytes.Repeat([]byte{2}, 100000),
				{},
				bytes.Repeat([]byte{4}, 3),
			}
			if err := c.Send(send, 1, dt, peer, 0); err != nil {
				return err
			}
		} else {
			var recv [][]byte
			if _, err := c.Recv(&recv, 1, dt, peer, 0); err != nil {
				return err
			}
			fmt.Printf("rank 1: received %d subvectors of lengths", len(recv))
			for _, v := range recv {
				fmt.Printf(" %d", len(v))
			}
			fmt.Println(" — shape carried in-message")
		}

		// A small timing comparison: custom (header + regions, one
		// message) vs manual packing (serialize everything into one
		// buffer, probe on the receive side).
		const iters = 50
		for _, total := range []int{1 << 12, 1 << 17, 1 << 21} {
			vecs := workloads.NewDoubleVec(total, 1024, 7)
			for _, method := range []string{"custom", "manual-pack"} {
				if err := c.Barrier(); err != nil {
					return err
				}
				start := time.Now()
				for i := 0; i < iters; i++ {
					if c.Rank() == 0 {
						switch method {
						case "custom":
							if err := c.Send(vecs, 1, dt, peer, 1); err != nil {
								return err
							}
						case "manual-pack":
							buf := make([]byte, workloads.PackedDoubleVecSize(vecs))
							workloads.PackDoubleVec(vecs, buf)
							if err := c.Send(buf, -1, mpi.TypeBytes, peer, 1); err != nil {
								return err
							}
						}
					} else {
						switch method {
						case "custom":
							// A fresh buffer each time: a same-shape one would
							// be received into in place, and the comparison
							// with manual-pack's allocation would not be fair.
							var recv [][]byte
							if _, err := c.Recv(&recv, 1, dt, peer, 1); err != nil {
								return err
							}
						case "manual-pack":
							m, err := c.Mprobe(peer, 1)
							if err != nil {
								return err
							}
							buf := make([]byte, m.Bytes)
							if _, err := c.MRecv(m, buf, -1, mpi.TypeBytes); err != nil {
								return err
							}
							if _, err := workloads.UnpackDoubleVec(buf); err != nil {
								return err
							}
						}
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					per := time.Since(start) / iters
					fmt.Printf("rank 0: %8d B  %-12s %v/transfer\n", total, method, per)
				}
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
