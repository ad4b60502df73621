package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mpicd/internal/ddt"
	"mpicd/internal/layout"
	"mpicd/internal/ucp"
)

// Elastic re-admission, in-process: the victim's worker plays the role
// of the respawned process (same fabric rank, fresh matching state after
// the survivors' Revive purge), so the full Grow/JoinWorld handshake
// runs without real process death. Reliable mode is on, as it would be
// in any launched world, so control messages survive the purge windows
// by retransmission.

func growAllreduceCheck(nc *Comm) error {
	const count = 4
	send := make([]byte, 8*count)
	recv := make([]byte, 8*count)
	for i := 0; i < count; i++ {
		layout.PutI64(send, i*8, int64(nc.Rank()+1)*100+int64(i))
	}
	if err := nc.Allreduce(send, recv, count, FromDDT(ddt.Int64), OpSumInt64); err != nil {
		return fmt.Errorf("rank %d: Allreduce on grown comm: %w", nc.Rank(), err)
	}
	for i := 0; i < count; i++ {
		var want int64
		for r := 0; r < nc.Size(); r++ {
			want += int64(r+1)*100 + int64(i)
		}
		if got := layout.I64(recv, i*8); got != want {
			return fmt.Errorf("rank %d: grown sum[%d] = %d, want %d", nc.Rank(), i, got, want)
		}
	}
	return nil
}

// TestGrowReadmitsRank is the elasticity acceptance path in one process:
// survivors declare a rank dead, Shrink, then Grow it back while the
// victim runs JoinWorld; the re-grown world has the original size and
// numbering and working collectives.
func TestGrowReadmitsRank(t *testing.T) {
	leakChecked(t)
	const n, victim = 4, 2
	opt := Options{UCP: ucp.Config{Reliable: true}}
	err := Run(n, opt, func(c *Comm) error {
		if c.Rank() == victim {
			nc, err := JoinWorld(c.Worker(), CollTuning{})
			if err != nil {
				return fmt.Errorf("victim: JoinWorld: %w", err)
			}
			if nc.Size() != n || nc.Rank() != victim {
				return fmt.Errorf("victim: rejoined as rank %d of %d, want %d of %d", nc.Rank(), nc.Size(), victim, n)
			}
			return growAllreduceCheck(nc)
		}
		c.Worker().DeclarePeerFailed(victim)
		sc, err := c.Shrink()
		if err != nil {
			return fmt.Errorf("rank %d: shrink: %w", c.Rank(), err)
		}
		if sc.Size() != n-1 {
			return fmt.Errorf("rank %d: shrunk size = %d, want %d", c.Rank(), sc.Size(), n-1)
		}
		nc, err := sc.Grow([]JoinPeer{{Rank: victim}})
		if err != nil {
			return fmt.Errorf("rank %d: grow: %w", c.Rank(), err)
		}
		// Growing the shrunk world back to size restores the original
		// numbering: members are ordered by fabric rank.
		if nc.Size() != n || nc.Rank() != c.Rank() {
			return fmt.Errorf("rank %d: grown comm rank %d of %d, want %d of %d", c.Rank(), nc.Rank(), nc.Size(), c.Rank(), n)
		}
		// The shrunk communicator stays valid alongside the grown one.
		if err := growAllreduceCheck(nc); err != nil {
			return err
		}
		return sc.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGrowValidation exercises the local argument checks and the
// revoked/duplicate refusals — all fail before any protocol traffic, so
// ranks assert independently.
func TestGrowValidation(t *testing.T) {
	leakChecked(t)
	const n, victim = 3, 2
	opt := Options{UCP: ucp.Config{Reliable: true}}
	err := Run(n, opt, func(c *Comm) error {
		wantInvalid := func(what string, peers []JoinPeer) error {
			if _, err := c.Grow(peers); !errors.Is(err, ErrInvalidComm) {
				return fmt.Errorf("rank %d: Grow(%s) = %v, want ErrInvalidComm", c.Rank(), what, err)
			}
			return nil
		}
		if err := wantInvalid("no peers", nil); err != nil {
			return err
		}
		if err := wantInvalid("member", []JoinPeer{{Rank: 1}}); err != nil {
			return err
		}
		if err := wantInvalid("out of range", []JoinPeer{{Rank: n + 7}}); err != nil {
			return err
		}
		if c.Rank() == victim {
			return nil
		}
		c.Worker().DeclarePeerFailed(victim)
		sc, err := c.Shrink()
		if err != nil {
			return fmt.Errorf("rank %d: shrink: %w", c.Rank(), err)
		}
		if _, err := sc.Grow([]JoinPeer{{Rank: victim}, {Rank: victim}}); !errors.Is(err, ErrInvalidComm) {
			return fmt.Errorf("rank %d: Grow(dup) = %v, want ErrInvalidComm", c.Rank(), err)
		}
		// A revocation reaches the other survivor asynchronously: without
		// this it can land while that rank is still inside Grow(dup), which
		// then reports ErrRevoked. What orders the two is entering the
		// barrier, not leaving it: the rank that leaves first revokes, and
		// that may fail the barrier the other is still finishing.
		if err := sc.Barrier(); err != nil && !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("rank %d: barrier before revoke: %w", c.Rank(), err)
		}
		if err := sc.Revoke(); err != nil {
			return err
		}
		if _, err := sc.Grow([]JoinPeer{{Rank: victim}}); !errors.Is(err, ErrRevoked) {
			return fmt.Errorf("rank %d: Grow on revoked comm = %v, want ErrRevoked", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGrowAbortsTogether: when the awaited joiner never calls JoinWorld,
// every survivor abandons the grow inside its window, the abort is
// agreed (all survivors return an error, none hangs), and the shrunk
// communicator remains usable for the next attempt.
func TestGrowAbortsTogether(t *testing.T) {
	leakChecked(t)
	const n, victim = 3, 2
	opt := Options{UCP: ucp.Config{Reliable: true, ReqTimeout: 300 * time.Millisecond}}
	err := Run(n, opt, func(c *Comm) error {
		if c.Rank() == victim {
			return nil // alive but never joins: the invite lands unanswered
		}
		c.Worker().DeclarePeerFailed(victim)
		sc, err := c.Shrink()
		if err != nil {
			return fmt.Errorf("rank %d: shrink: %w", c.Rank(), err)
		}
		if _, err := sc.GrowWithin([]JoinPeer{{Rank: victim}}, 100*time.Millisecond); err == nil {
			return fmt.Errorf("rank %d: grow of a never-joining peer succeeded", c.Rank())
		} else if !errors.Is(err, ucp.ErrTimeout) && !errors.Is(err, ErrProcFailed) {
			return fmt.Errorf("rank %d: grow abort error outside the taxonomy: %v", c.Rank(), err)
		}
		// The aborted grow consumed a context id but left the shrunk
		// communicator fully usable.
		if err := sc.Barrier(); err != nil {
			return fmt.Errorf("rank %d: barrier after aborted grow: %w", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
