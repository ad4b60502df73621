// mpicd-pingpong is an OSU-style pingpong over the reproduction's MPI
// stack, either in-process or across real processes over TCP.
//
// In-process (both ranks as goroutines):
//
//	mpicd-pingpong
//
// Across two processes on real sockets:
//
//	mpicd-pingpong -transport tcp -rank 0 -addrs 127.0.0.1:7771,127.0.0.1:7772
//	mpicd-pingpong -transport tcp -rank 1 -addrs 127.0.0.1:7771,127.0.0.1:7772
//
// The -type flag selects the datatype exercised: bytes (contiguous),
// struct-simple / struct-vec (derived vs custom vs manual packing) or
// doublevec (dynamic custom type).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mpicd/internal/harness"
	"mpicd/mpi"
)

func main() {
	transport := flag.String("transport", "inproc", "inproc or tcp")
	rank := flag.Int("rank", 0, "rank of this process (tcp only)")
	addrs := flag.String("addrs", "", "comma-separated rank addresses (tcp only)")
	typ := flag.String("type", "bytes", "bytes, struct-simple, struct-vec or doublevec")
	method := flag.String("method", "custom", "custom, packed/manual-pack or rsmpi")
	maxSize := flag.Int64("max", 1<<20, "largest message size in bytes")
	iters := flag.Int("iters", 100, "timed iterations per size")
	stats := flag.String("stats", "", "dump transport metrics as JSON after the run: a file path, or - for stderr")
	traceCap := flag.Int("trace", 0, "with -stats, also keep the last N per-message lifecycle events")
	flag.Parse()

	var observer *mpi.Observer
	opt := mpi.Options{}
	if *stats != "" {
		observer = mpi.NewObserver(*traceCap)
		opt.Fabric.Obs = observer
	}

	op := func(size int64) harness.Op {
		switch *typ {
		case "bytes":
			return harness.PickleOp("roofline", nil, size)
		case "doublevec":
			m := *method
			if m == "custom" {
				return harness.DoubleVecOp("custom", int(size), 1024)
			}
			return harness.DoubleVecOp("manual-pack", int(size), 1024)
		case "struct-simple":
			return harness.StructSimpleOp(*method, int(size))
		case "struct-vec":
			return harness.StructVecOp(*method, int(size))
		default:
			log.Fatalf("unknown -type %q", *typ)
			return harness.Op{}
		}
	}

	run := func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			fmt.Printf("# pingpong type=%s method=%s transport=%s\n", *typ, *method, *transport)
			fmt.Printf("%12s %14s %14s\n", "bytes", "latency(us)", "MB/s")
		}
		peer := 1 - c.Rank()
		for _, size := range harness.Sizes(64, *maxSize, *maxSize) {
			o := op(size)
			if err := c.Barrier(); err != nil {
				return err
			}
			start := time.Now()
			for i := 0; i < *iters; i++ {
				if c.Rank() == 0 {
					if err := o.Send(c, peer, 1); err != nil {
						return err
					}
					if err := o.Recv(c, peer, 2); err != nil {
						return err
					}
				} else {
					if err := o.Recv(c, peer, 1); err != nil {
						return err
					}
					if err := o.Send(c, peer, 2); err != nil {
						return err
					}
				}
			}
			if c.Rank() == 0 {
				rtt := time.Since(start).Seconds() / float64(*iters)
				lat := rtt / 2 * 1e6
				bw := 2 * float64(o.Bytes) / rtt / 1e6
				fmt.Printf("%12d %14.2f %14.1f\n", o.Bytes, lat, bw)
			}
		}
		return nil
	}

	switch *transport {
	case "inproc":
		if err := mpi.Run(2, opt, run); err != nil {
			log.Fatal(err)
		}
	case "tcp":
		list := strings.Split(*addrs, ",")
		if len(list) != 2 {
			log.Fatal("-addrs must list exactly two rank addresses")
		}
		world, err := mpi.ConnectTCP(*rank, list, opt)
		if err != nil {
			log.Fatal(err)
		}
		defer world.Close()
		if err := run(world.Comm); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -transport %q", *transport)
	}
	if observer != nil {
		if err := dumpStats(observer, *stats); err != nil {
			log.Fatal(err)
		}
	}
}

// dumpStats writes the accumulated metrics (and trace, when enabled) to
// dest: a file path, or "-" for stderr so the dump does not interleave
// with the latency table on stdout.
func dumpStats(o *mpi.Observer, dest string) error {
	if dest == "-" {
		return o.WriteJSON(os.Stderr)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := o.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
