package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// faultMatrixSeeds are the fixed seeds CI pins for the fault matrix.
var faultMatrixSeeds = []int64{1, 42, 20240711}

// faultOptions builds an in-process world whose every NIC is wrapped in a
// lossy fault plan (drop + duplicate + reorder + corrupt + truncate), with
// the reliability machinery turned on to recover from it.
func faultOptions(seed int64) Options {
	return Options{
		Fabric: fabric.Config{FragSize: 1024, Checksum: true},
		UCP: ucp.Config{
			Reliable:      true,
			RexmitBase:    time.Millisecond,
			RexmitMax:     20 * time.Millisecond,
			RexmitRetries: 200,
		},
		WrapNIC: func(rank int, nic fabric.NIC) fabric.NIC {
			return fabric.WrapFault(nic, fabric.FaultPlan{
				Seed: seed + int64(rank),
				Rules: []fabric.FaultRule{
					{Peer: -1, Action: fabric.Drop, Prob: 0.12},
					{Peer: -1, Action: fabric.Duplicate, Prob: 0.12},
					{Peer: -1, Action: fabric.Reorder, Prob: 0.12},
					{Peer: -1, Action: fabric.Corrupt, Prob: 0.08},
					{Peer: -1, Action: fabric.Truncate, Prob: 0.05, Bytes: 3},
				},
			})
		},
	}
}

// TestFaultMatrixCore drives every datatype class through the lossy world:
// contiguous bytes on both protocols, a custom type with memory regions,
// and the inorder dynamic double-vector. Every transfer must land exactly
// once with intact bytes.
func TestFaultMatrixCore(t *testing.T) {
	leakChecked(t)
	for _, seed := range faultMatrixSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Run("bytes-eager", func(t *testing.T) {
				data := pattern(20000, 1)
				run2(t, faultOptions(seed),
					func(c *Comm) error { return c.Send(data, -1, TypeBytes, 1, 1) },
					func(c *Comm) error {
						out := make([]byte, len(data))
						st, err := c.Recv(out, -1, TypeBytes, 0, 1)
						if err != nil {
							return err
						}
						if st.Bytes != Count(len(data)) || !bytes.Equal(out, data) {
							return errors.New("eager bytes corrupted in delivery")
						}
						return nil
					})
			})
			t.Run("bytes-rndv", func(t *testing.T) {
				data := pattern(120000, 2)
				run2(t, faultOptions(seed),
					func(c *Comm) error { return c.Send(data, -1, TypeBytes, 1, 1) },
					func(c *Comm) error {
						out := make([]byte, len(data))
						if _, err := c.Recv(out, -1, TypeBytes, 0, 1); err != nil {
							return err
						}
						if !bytes.Equal(out, data) {
							return errors.New("rendezvous bytes corrupted in delivery")
						}
						return nil
					})
			})
			t.Run("custom-regions", func(t *testing.T) {
				dt := TypeCreateCustom(recVecHandler{})
				send := &recVec{A: 7, B: -9, D: 1.5, Data: pattern(50000, 3)}
				run2(t, faultOptions(seed),
					func(c *Comm) error { return c.Send(send, 1, dt, 1, 1) },
					func(c *Comm) error {
						recv := &recVec{Data: make([]byte, len(send.Data))}
						if _, err := c.Recv(recv, 1, dt, 0, 1); err != nil {
							return err
						}
						if recv.A != 7 || recv.B != -9 || recv.D != 1.5 {
							return fmt.Errorf("packed fields corrupted: %+v", recv)
						}
						if !bytes.Equal(recv.Data, send.Data) {
							return errors.New("region bytes corrupted in delivery")
						}
						return nil
					})
			})
			t.Run("custom-inorder", func(t *testing.T) {
				dt := TypeCreateCustom(dvHandler{}, WithInOrder())
				send := make([][]byte, 12)
				for i := range send {
					send[i] = pattern(2000+i*500, byte(i+1))
				}
				run2(t, faultOptions(seed),
					func(c *Comm) error { return c.Send(send, 1, dt, 1, 1) },
					func(c *Comm) error {
						var recv [][]byte
						if _, err := c.Recv(&recv, 1, dt, 0, 1); err != nil {
							return err
						}
						if len(recv) != len(send) {
							return fmt.Errorf("got %d subvectors, want %d", len(recv), len(send))
						}
						for i := range send {
							if !bytes.Equal(recv[i], send[i]) {
								return fmt.Errorf("subvector %d corrupted in delivery", i)
							}
						}
						return nil
					})
			})
		})
	}
}

// TestWaitTimeoutOnDownLink pins the acceptance criterion: with the peer's
// link held down, Request.WaitTimeout must return ErrTimeout instead of
// hanging.
func TestWaitTimeoutOnDownLink(t *testing.T) {
	leakChecked(t)
	opt := Options{
		UCP: ucp.Config{
			Reliable:      true,
			RexmitBase:    time.Millisecond,
			RexmitMax:     10 * time.Millisecond,
			RexmitRetries: 1 << 30, // never give up: only WaitTimeout bounds the wait
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
	s := NewSystem(2, opt)
	defer s.Close()
	data := pattern(5000, 1)
	r, err := s.Comm(0).Isend(data, -1, TypeBytes, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.WaitTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("WaitTimeout on down link = %v, want ErrTimeout", err)
	}
}
