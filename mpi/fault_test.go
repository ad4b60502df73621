package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
	"mpicd/mpi"
)

// TestFacadeFaultRecovery drives a transfer through the public facade over
// a lossy fabric: the application sees a normal, intact delivery and the
// error taxonomy stays invisible unless something is genuinely
// unrecoverable.
func TestFacadeFaultRecovery(t *testing.T) {
	opt := mpi.Options{
		Fabric: fabric.Config{FragSize: 1024, Checksum: true},
		UCP: ucp.Config{
			Reliable:      true,
			RexmitBase:    time.Millisecond,
			RexmitMax:     20 * time.Millisecond,
			RexmitRetries: 200,
		},
		WrapNIC: func(rank int, nic fabric.NIC) fabric.NIC {
			return fabric.WrapFault(nic, fabric.FaultPlan{
				Seed: 7 + int64(rank),
				Rules: []fabric.FaultRule{
					{Peer: -1, Action: fabric.Drop, Prob: 0.15},
					{Peer: -1, Action: fabric.Duplicate, Prob: 0.15},
					{Peer: -1, Action: fabric.Corrupt, Prob: 0.1},
				},
			})
		},
	}
	data := make([]byte, 30000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	err := mpi.Run(2, opt, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(data, -1, mpi.TypeBytes, 1, 1)
		}
		out := make([]byte, len(data))
		if _, err := c.Recv(out, -1, mpi.TypeBytes, 0, 1); err != nil {
			return err
		}
		if !bytes.Equal(out, data) {
			return fmt.Errorf("bytes corrupted in delivery")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeErrorTaxonomy pins the public error surface: a request on a
// downed link times out with mpi.ErrTimeout via errors.Is, both through
// WaitTimeout and through retransmission exhaustion.
func TestFacadeErrorTaxonomy(t *testing.T) {
	opt := mpi.Options{
		UCP: ucp.Config{
			Reliable:      true,
			RexmitBase:    time.Millisecond,
			RexmitMax:     10 * time.Millisecond,
			RexmitRetries: 5,
		},
		WrapNIC: func(rank int, nic fabric.NIC) fabric.NIC {
			if rank != 0 {
				return nic
			}
			return fabric.WrapFault(nic, fabric.FaultPlan{Seed: 1, Rules: []fabric.FaultRule{
				{Peer: 1, Action: fabric.LinkDown, Prob: 1, Count: 1, Down: -1},
			}})
		},
	}
	s := mpi.NewSystem(2, opt)
	defer s.Close()
	data := []byte("never arrives")
	r, err := s.Comm(0).Isend(data, -1, mpi.TypeBytes, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.WaitTimeout(5 * time.Millisecond); !errors.Is(err, mpi.ErrTimeout) {
		t.Fatalf("WaitTimeout = %v, want mpi.ErrTimeout", err)
	}
	if _, err := r.Wait(); !errors.Is(err, mpi.ErrTimeout) {
		t.Fatalf("exhausted send = %v, want mpi.ErrTimeout", err)
	}
}
