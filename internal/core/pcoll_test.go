package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpicd/internal/ddt"
	"mpicd/internal/fabric"
	"mpicd/internal/layout"
	"mpicd/internal/ucp"
)

// Persistent-collective matrix: correctness across rank counts and
// providers, iteration reuse with changing data, derived datatypes,
// lifecycle errors, and the restart path after a rank kill.

// pcollIters is how many Start/Wait rounds each matrix cell runs — data
// changes every round, so cross-iteration mismatches (a stale epoch, a
// dirty accumulator) show up as wrong sums, not just hangs.
const pcollIters = 5

// pcollRank runs every persistent kind on one communicator for
// pcollIters rounds, reinitializing inputs each round.
func pcollRank(c *Comm) error {
	n := c.Size()
	const count = 6

	// Allreduce over a derived datatype.
	arSend := make([]byte, 8*count)
	arRecv := make([]byte, 8*count)
	ar, err := c.AllreduceInit(arSend, arRecv, count, FromDDT(ddt.Int64), OpSumInt64)
	if err != nil {
		return fmt.Errorf("allreduce_init: %v", err)
	}
	defer ar.Free()

	// Bcast of a strided vector (4 blocks of 2 int64s, stride 4): the
	// gaps must survive untouched while the blocks propagate.
	vec, err := ddt.Vector(4, 2, 4, ddt.Int64)
	if err != nil {
		return err
	}
	vdt := FromDDT(vec)
	vecExtent := ((4-1)*4 + 2) * 8
	bcBuf := make([]byte, vecExtent)
	bc, err := c.BcastInit(bcBuf, 1, vdt, 0)
	if err != nil {
		return fmt.Errorf("bcast_init: %v", err)
	}
	defer bc.Free()

	// Allgather of one int64 per rank.
	agSend := make([]byte, 8)
	agRecv := make([]byte, 8*n)
	ag, err := c.AllgatherInit(agSend, 1, FromDDT(ddt.Int64), agRecv)
	if err != nil {
		return fmt.Errorf("allgather_init: %v", err)
	}
	defer ag.Free()

	ba, err := c.BarrierInit()
	if err != nil {
		return fmt.Errorf("barrier_init: %v", err)
	}
	defer ba.Free()

	runOne := func(p *PersistentColl) error {
		if err := p.Start(); err != nil {
			return fmt.Errorf("%s start: %v", p.Kind(), err)
		}
		return p.Wait()
	}

	for iter := 0; iter < pcollIters; iter++ {
		// Allreduce: rank r contributes (r+1)*1000 + iter*10 + i.
		for i := 0; i < count; i++ {
			layout.PutI64(arSend, i*8, int64(c.Rank()+1)*1000+int64(iter)*10+int64(i))
		}
		if err := runOne(ar); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			var want int64
			for r := 0; r < n; r++ {
				want += int64(r+1)*1000 + int64(iter)*10 + int64(i)
			}
			if got := layout.I64(arRecv, i*8); got != want {
				return fmt.Errorf("rank %d iter %d: allreduce[%d] = %d, want %d", c.Rank(), iter, i, got, want)
			}
		}

		// Bcast: root refills the vector blocks, everyone else clears the
		// buffer; packed images must agree afterwards.
		for i := range bcBuf {
			bcBuf[i] = 0
		}
		if c.Rank() == 0 {
			for blk := 0; blk < 4; blk++ {
				for e := 0; e < 2; e++ {
					layout.PutI64(bcBuf, (blk*4+e)*8, int64(iter)*100+int64(blk*2+e))
				}
			}
		}
		if err := runOne(bc); err != nil {
			return err
		}
		want := make([]byte, 4*2*8)
		for blk := 0; blk < 4; blk++ {
			for e := 0; e < 2; e++ {
				layout.PutI64(want, (blk*2+e)*8, int64(iter)*100+int64(blk*2+e))
			}
		}
		got := make([]byte, len(want))
		if _, err := Pack(bcBuf, 1, vdt, got); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d iter %d: bcast vector payload mismatch", c.Rank(), iter)
		}

		// Allgather: rank r contributes r*10 + iter.
		layout.PutI64(agSend, 0, int64(c.Rank())*10+int64(iter))
		if err := runOne(ag); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if got := layout.I64(agRecv, r*8); got != int64(r)*10+int64(iter) {
				return fmt.Errorf("rank %d iter %d: allgather[%d] = %d", c.Rank(), iter, r, got)
			}
		}

		if err := runOne(ba); err != nil {
			return err
		}
	}
	return nil
}

func TestPersistentCollMatrix(t *testing.T) {
	leakChecked(t)
	for _, n := range []int{2, 4, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			if err := Run(n, Options{}, pcollRank); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPersistentCollTCP runs the same matrix body over real sockets.
func TestPersistentCollTCP(t *testing.T) {
	leakChecked(t)
	if testing.Short() {
		t.Skip("TCP persistent matrix skipped in -short")
	}
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			addrs := tcpAddrs(t, n)
			errs := make(chan error, n)
			for rank := 0; rank < n; rank++ {
				go func(rank int) {
					nic, err := fabric.NewTCP(rank, addrs, fabric.Config{})
					if err != nil {
						errs <- fmt.Errorf("rank %d: %v", rank, err)
						return
					}
					w := ucp.NewWorker(nic, ucp.Config{})
					defer w.Close()
					if err := pcollRank(NewComm(w)); err != nil {
						errs <- fmt.Errorf("rank %d: %v", rank, err)
						return
					}
					errs <- nil
				}(rank)
			}
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPersistentCollLifecycle pins the handle's state machine on a
// single-rank world, where collectives complete locally and every
// transition is deterministic.
func TestPersistentCollLifecycle(t *testing.T) {
	leakChecked(t)
	sys := NewSystem(1, Options{})
	defer sys.Close()
	c := sys.Comm(0)

	send := make([]byte, 8)
	recv := make([]byte, 8)
	p, err := c.AllreduceInit(send, recv, 1, FromDDT(ddt.Int64), OpSumInt64)
	if err != nil {
		t.Fatal(err)
	}

	// Wait/Test before any Start report idle success.
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait before Start = %v", err)
	}
	if done, err := p.Test(); !done || err != nil {
		t.Fatalf("Test before Start = %v, %v", done, err)
	}

	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// A second Start before Wait is an error even if the iteration has
	// already finished internally.
	if err := p.Start(); !errors.Is(err, ErrActive) {
		t.Fatalf("double Start = %v, want ErrActive", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	// Test drains a completed iteration.
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := p.Test()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}

	if err := p.Rebind(nil); !errors.Is(err, ErrInvalidComm) {
		t.Fatalf("Rebind(nil) = %v, want ErrInvalidComm", err)
	}

	if err := p.Free(); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(); err != nil {
		t.Fatalf("second Free = %v", err)
	}
	if err := p.Start(); !errors.Is(err, ErrInvalidComm) {
		t.Fatalf("Start after Free = %v, want ErrInvalidComm", err)
	}

	// Init-time validation.
	if _, err := c.BcastInit(make([]byte, 8), 8, TypeBytes, 5); !errors.Is(err, ErrInvalidComm) {
		t.Fatalf("BcastInit bad root = %v", err)
	}
	if _, err := c.AllreduceInit(make([]byte, 4), recv, 1, FromDDT(ddt.Int64), OpSumInt64); !errors.Is(err, ErrInvalidComm) {
		t.Fatalf("AllreduceInit short send = %v", err)
	}
}

// persistentRecoveryRank is the restart scenario: iterate a persistent
// Allreduce, lose the victim mid-iteration, recover with
// Revoke/Agree/Shrink, Rebind the same handle to the survivor
// communicator, and keep iterating.
func persistentRecoveryRank(c *Comm, victim, killIter int, kill func()) error {
	const count = 4
	send := make([]byte, 8*count)
	recv := make([]byte, 8*count)
	fill := func(rank, iter int) {
		for i := 0; i < count; i++ {
			layout.PutI64(send, i*8, int64(rank+1)*100+int64(iter)*7+int64(i))
		}
	}
	check := func(ranks, iter int) error {
		for i := 0; i < count; i++ {
			var want int64
			for r := 0; r < ranks; r++ {
				want += int64(r+1)*100 + int64(iter)*7 + int64(i)
			}
			if got := layout.I64(recv, i*8); got != want {
				return fmt.Errorf("iter %d: sum[%d] = %d, want %d", iter, i, got, want)
			}
		}
		return nil
	}

	p, err := c.AllreduceInit(send, recv, count, FromDDT(ddt.Int64), OpSumInt64)
	if err != nil {
		return err
	}
	defer p.Free()

	var failure error
	for iter := 0; ; iter++ {
		fill(c.Rank(), iter)
		if c.Rank() == victim && iter == killIter {
			go func() {
				time.Sleep(300 * time.Microsecond)
				kill()
			}()
			_ = p.Start()
			_ = p.Wait()
			return nil // the victim is dead; nothing further to verify
		}
		if err := p.Start(); err != nil {
			if errors.Is(err, ErrRevoked) {
				// Another survivor revoked between iterations: Start
				// failed fast, which is exactly the contract.
				failure = err
				break
			}
			return fmt.Errorf("rank %d iter %d: Start: %v", c.Rank(), iter, err)
		}
		err := p.Wait()
		if err == nil {
			if iter > killIter {
				return fmt.Errorf("rank %d: persistent Allreduce succeeded at iter %d with a dead participant", c.Rank(), iter)
			}
			if err := check(c.Size(), iter); err != nil {
				return fmt.Errorf("rank %d: %v", c.Rank(), err)
			}
			continue
		}
		if !errors.Is(err, ErrProcFailed) && !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("rank %d: persistent Allreduce failed outside the taxonomy at iter %d: %v", c.Rank(), iter, err)
		}
		failure = err
		break
	}

	// Standard ULFM recovery, then re-aim the same handle.
	if err := c.Revoke(); err != nil {
		return fmt.Errorf("rank %d: revoke: %v", c.Rank(), err)
	}
	// Start on the revoked communicator fails fast without touching the
	// network.
	if err := p.Start(); !errors.Is(err, ErrRevoked) {
		return fmt.Errorf("rank %d: Start on revoked comm = %v, want ErrRevoked (after %v)", c.Rank(), err, failure)
	}
	if _, err := c.Agree(0); err != nil {
		return fmt.Errorf("rank %d: agree: %v", c.Rank(), err)
	}
	nc, err := c.Shrink()
	if err != nil {
		return fmt.Errorf("rank %d: shrink: %v", c.Rank(), err)
	}
	if err := p.Rebind(nc); err != nil {
		return fmt.Errorf("rank %d: rebind: %v", c.Rank(), err)
	}

	// The handle keeps iterating on the survivor communicator.
	for iter := 0; iter < 3; iter++ {
		fill(nc.Rank(), iter)
		if err := p.Start(); err != nil {
			return fmt.Errorf("rank %d: post-rebind Start: %v", c.Rank(), err)
		}
		if err := p.Wait(); err != nil {
			return fmt.Errorf("rank %d: post-rebind Wait: %v", c.Rank(), err)
		}
		if err := check(nc.Size(), iter); err != nil {
			return fmt.Errorf("rank %d post-rebind: %v", c.Rank(), err)
		}
	}
	return nil
}

func TestPersistentAllreduceKillRebind(t *testing.T) {
	leakChecked(t)
	for _, seed := range recoverySeeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			const n = 5
			victim := int((seed*7 + 3) % n)
			opt, fns := killableWorld(n)
			err := Run(n, opt, func(c *Comm) error {
				return persistentRecoveryRank(c, victim, 2, func() { fns[victim].Kill() })
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPersistentAllreduceKillRebindTCP is the same restart scenario over
// real sockets (one seed: the TCP mesh is expensive to stand up).
func TestPersistentAllreduceKillRebindTCP(t *testing.T) {
	leakChecked(t)
	if testing.Short() {
		t.Skip("TCP persistent recovery skipped in -short")
	}
	const seed = 42
	const n = 5
	victim := int((seed*7 + 3) % n)
	runKillableTCP(t, n, victim, func(c *Comm, kill func()) error {
		return persistentRecoveryRank(c, victim, 2, kill)
	})
}
