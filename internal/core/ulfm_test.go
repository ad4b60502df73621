package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mpicd/internal/ddt"
	"mpicd/internal/fabric"
	"mpicd/internal/layout"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// End-to-end ULFM recovery: detect → Revoke → Agree → Shrink → retry.
// The tests run without any ReqTimeout — unblocking relies entirely on
// failure notification (the detector) and revocation, which is the
// property under test.

// recoverySeeds are the fixed seeds the CI chaos job pins.
var recoverySeeds = []int64{1, 42, 20240711}

// hbUCP is the detector-enabled transport configuration for recovery
// tests: fast heartbeats so deaths are declared within test time.
func hbUCP() ucp.Config {
	// DeadAfter trades detection latency for false-positive margin. The
	// race detector and TCP syscalls can starve a rank's pong path for
	// tens of milliseconds, so the threshold stays comfortably above that
	// while keeping recovery well under a second.
	return ucp.Config{Heartbeat: ucp.DetectorConfig{
		Period:       5 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	}}
}

// killableWorld wires every rank's NIC through a fault plan sharing one
// kill switch, collecting the FaultNICs so the test can kill a rank at a
// precise point.
func killableWorld(n int) (Options, []*fabric.FaultNIC) {
	ks := fabric.NewKillSwitch()
	fns := make([]*fabric.FaultNIC, n)
	var mu sync.Mutex
	opt := Options{
		UCP: hbUCP(),
		WrapNIC: func(rank int, nic fabric.NIC) fabric.NIC {
			fn := fabric.WrapFault(nic, fabric.FaultPlan{Kills: ks})
			mu.Lock()
			fns[rank] = fn
			mu.Unlock()
			return fn
		},
	}
	return opt, fns
}

// recoveryRank is the per-rank body of the acceptance scenario: loop
// Allreduce; the victim dies mid-collective at killIter; each survivor
// observes a failure (ErrProcFailed if it noticed the death itself,
// ErrRevoked if another survivor revoked first), revokes, agrees on the
// failed set, shrinks, and retries the Allreduce on the survivor
// communicator.
func recoveryRank(c *Comm, victim, killIter int, kill func()) error {
	const count = 4
	send := make([]byte, 8*count)
	recv := make([]byte, 8*count)
	fill := func(rank int) {
		for i := 0; i < count; i++ {
			layout.PutI64(send, i*8, int64(rank+1)*100+int64(i))
		}
	}
	sum := func(ranks int) []int64 {
		out := make([]int64, count)
		for r := 0; r < ranks; r++ {
			for i := 0; i < count; i++ {
				out[i] += int64(r+1)*100 + int64(i)
			}
		}
		return out
	}

	var failure error
	for iter := 0; ; iter++ {
		fill(c.Rank())
		if c.Rank() == victim && iter == killIter {
			// Die mid-collective: enter the Allreduce, then have the NIC
			// killed out from under it. Whatever the local call returns,
			// this rank is gone.
			go func() {
				time.Sleep(300 * time.Microsecond)
				kill()
			}()
			_ = c.Allreduce(send, recv, count, FromDDT(ddt.Int64), OpSumInt64)
			return nil
		}
		err := c.Allreduce(send, recv, count, FromDDT(ddt.Int64), OpSumInt64)
		if err == nil {
			// iter == killIter may legitimately succeed: the victim enters
			// the collective and the kill can land just after it completes.
			// Beyond that the victim no longer participates, so success
			// would mean the collective matched without a contributor.
			if iter > killIter {
				return fmt.Errorf("rank %d: Allreduce succeeded at iter %d with a dead participant", c.Rank(), iter)
			}
			want := sum(c.Size())
			for i := 0; i < count; i++ {
				if got := layout.I64(recv, i*8); got != want[i] {
					return fmt.Errorf("rank %d iter %d: sum[%d] = %d, want %d", c.Rank(), iter, i, got, want[i])
				}
			}
			continue
		}
		if !errors.Is(err, ErrProcFailed) && !errors.Is(err, ErrRevoked) {
			var ctl strings.Builder
			_ = obs.Control.WriteJSON(&ctl)
			return fmt.Errorf("rank %d: Allreduce failed outside the taxonomy at iter %d: %v\ncontrol events:\n%s",
				c.Rank(), iter, err, ctl.String())
		}
		failure = err
		break
	}

	// Recovery. Revoke is idempotent and never collective: every survivor
	// may call it regardless of who revoked first.
	if err := c.Revoke(); err != nil {
		return fmt.Errorf("rank %d: revoke: %v", c.Rank(), err)
	}
	if !c.Revoked() {
		return fmt.Errorf("rank %d: Revoked() false after Revoke", c.Rank())
	}
	// The revoked communicator refuses ordinary traffic...
	if err := c.Barrier(); !errors.Is(err, ErrRevoked) {
		return fmt.Errorf("rank %d: Barrier on revoked comm = %v, want ErrRevoked", c.Rank(), err)
	}
	// ...but agreement still works on it, and every survivor must agree
	// on a failed set containing exactly the victim.
	mask, err := c.Agree(0)
	if err != nil {
		return fmt.Errorf("rank %d: agree (after %v): %v", c.Rank(), failure, err)
	}
	if want := uint64(1) << uint(victim); mask != want {
		return fmt.Errorf("rank %d: agreed mask = %#x, want %#x (locally failed: %v)", c.Rank(), mask, want, c.Failed())
	}
	nc, err := c.Shrink()
	if err != nil {
		return fmt.Errorf("rank %d: shrink: %v", c.Rank(), err)
	}
	if nc.Size() != c.Size()-1 {
		return fmt.Errorf("rank %d: shrunk size = %d, want %d", c.Rank(), nc.Size(), c.Size()-1)
	}
	// Survivors keep their relative order under renumbering.
	wantRank := c.Rank()
	if c.Rank() > victim {
		wantRank--
	}
	if nc.Rank() != wantRank {
		return fmt.Errorf("rank %d: shrunk rank = %d, want %d", c.Rank(), nc.Rank(), wantRank)
	}
	// The retried collective completes on the survivor communicator with
	// the survivors' data.
	fill(nc.Rank())
	if err := nc.Allreduce(send, recv, count, FromDDT(ddt.Int64), OpSumInt64); err != nil {
		return fmt.Errorf("rank %d: retried Allreduce: %v", c.Rank(), err)
	}
	want := sum(nc.Size())
	for i := 0; i < count; i++ {
		if got := layout.I64(recv, i*8); got != want[i] {
			return fmt.Errorf("rank %d: retried sum[%d] = %d, want %d", c.Rank(), i, got, want[i])
		}
	}
	return nil
}

// TestRecoveryKillMidAllreduce is the inproc acceptance scenario: a
// 5-rank world, one rank killed mid-Allreduce, full recovery on the
// survivors.
func TestRecoveryKillMidAllreduce(t *testing.T) {
	leakChecked(t)
	for _, seed := range recoverySeeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			const n = 5
			victim := int((seed*7 + 3) % n)
			opt, fns := killableWorld(n)
			err := Run(n, opt, func(c *Comm) error {
				return recoveryRank(c, victim, 2, func() { fns[victim].Kill() })
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runKillableTCP runs body on n in-process "ranks" over the TCP provider,
// their fault wrappers sharing one kill switch exactly as a crashed
// process would go silent on every connection at once; kill() kills the
// victim. Endpoints come down the way real processes' would: survivors
// keep theirs up until every rank is done (a rank that finishes first and
// closes its listener reads to a slower peer as connect-refused, which is
// hard death evidence against a survivor), and the victim's sockets close
// only once the kill switch says it is dead (a closed socket under a rank
// still called alive is a half-dead state real process death never shows).
func runKillableTCP(t *testing.T, n, victim int, body func(c *Comm, kill func()) error) {
	t.Helper()
	addrs := tcpAddrs(t, n)
	ks := fabric.NewKillSwitch()
	errs := make(chan error, n)
	allDone := make(chan struct{})
	defer close(allDone)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			nic, err := fabric.NewTCP(rank, addrs, fabric.Config{})
			if err != nil {
				errs <- fmt.Errorf("rank %d: %v", rank, err)
				return
			}
			w := ucp.NewWorker(fabric.WrapFault(nic, fabric.FaultPlan{Kills: ks}), hbUCP())
			defer func() {
				if rank == victim {
					for !ks.Dead(victim) {
						time.Sleep(100 * time.Microsecond)
					}
				} else {
					<-allDone
				}
				w.Close()
			}()
			errs <- body(NewComm(w), func() { ks.Kill(victim) })
		}(rank)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryKillMidAllreduceTCP is the same scenario over the TCP
// provider: five in-process "ranks" on real sockets.
func TestRecoveryKillMidAllreduceTCP(t *testing.T) {
	leakChecked(t)
	if testing.Short() {
		t.Skip("TCP recovery matrix skipped in -short")
	}
	for _, seed := range recoverySeeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			const n = 5
			victim := int((seed*7 + 3) % n)
			runKillableTCP(t, n, victim, func(c *Comm, kill func()) error {
				return recoveryRank(c, victim, 2, kill)
			})
		})
	}
}

// TestRevokePropagation: one rank's Revoke must reach every other rank,
// aborting their pending operations — including a blocking receive that
// would otherwise wait forever — and poisoning future ones.
func TestRevokePropagation(t *testing.T) {
	leakChecked(t)
	const n = 3
	err := Run(n, Options{UCP: hbUCP()}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			time.Sleep(5 * time.Millisecond) // let rank 1's receive block
			return c.Revoke()
		case 1:
			buf := make([]byte, 8)
			_, err := c.Recv(buf, -1, TypeBytes, AnySource, 9)
			if !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("pending recv on revoked comm = %v, want ErrRevoked", err)
			}
			return nil
		default:
			// A rank with nothing pending still learns of the revocation.
			deadline := time.Now().Add(5 * time.Second)
			for !c.Revoked() {
				if time.Now().After(deadline) {
					return errors.New("revocation never propagated to an idle rank")
				}
				time.Sleep(time.Millisecond)
			}
			if err := c.Send(make([]byte, 8), -1, TypeBytes, 0, 9); !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("send on revoked comm = %v, want ErrRevoked", err)
			}
			if r := c.Ibarrier(); !errors.Is(r.Wait(), ErrRevoked) {
				return errors.New("Ibarrier on revoked comm did not fail with ErrRevoked")
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestControlEvents: with no observer configured, Revoke records
// "ulfm revoked" at the revoker, with the count of receives it aborted,
// and every other rank records the notice it took in.
func TestControlEvents(t *testing.T) {
	leakChecked(t)
	start := time.Now().UnixNano()
	err := Run(3, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			r, err := c.Irecv(make([]byte, 8), 8, TypeBytes, AnySource, 9)
			if err != nil {
				return err
			}
			if err := c.Revoke(); err != nil {
				return err
			}
			if _, err := r.Wait(); !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("pending recv on revoked comm = %v, want ErrRevoked", err)
			}
			return nil
		}
		deadline := time.Now().Add(5 * time.Second)
		for !c.Revoked() {
			if time.Now().After(deadline) {
				return errors.New("revocation never propagated")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := func(rank int, note string, arg int64) bool {
		for _, ev := range obs.Control.Events() {
			if ev.Kind == obs.EvControl && ev.Nanos >= start && int(ev.Rank) == rank && ev.Note == note && (arg < 0 || ev.Arg == arg) {
				return true
			}
		}
		return false
	}
	if !seen(0, "ulfm revoked", 1) {
		t.Errorf("rank 0 recorded no \"ulfm revoked\" with 1 receive aborted")
	}
	for rank := 1; rank < 3; rank++ {
		if !seen(rank, "ulfm notice", -1) {
			t.Errorf("rank %d recorded no \"ulfm notice\"", rank)
		}
	}
}

// blockedOnRevoke: rank 1 blocks in op on a communicator rank 0 revokes
// 20 ms later, with no ReqTimeout to fall back on. A blocked Probe or Mprobe
// is a posted request in the transport, so the revocation's abort sweep
// fails it like the pending Recv of TestRevokePropagation; it used to be
// woken, find nothing and go back to sleep for good.
func blockedOnRevoke(t *testing.T, name string, op func(c *Comm) error) {
	leakChecked(t)
	done := make(chan error, 1)
	go func() {
		done <- Run(2, Options{}, func(c *Comm) error {
			if c.Rank() == 0 {
				time.Sleep(20 * time.Millisecond) // let rank 1 block
				return c.Revoke()
			}
			if err := op(c); !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("%s blocked on a revoked comm = %v, want ErrRevoked", name, err)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s is still blocked 5 s after the communicator was revoked", name)
	}
}

func TestMprobeBlockedOnRevoke(t *testing.T) {
	blockedOnRevoke(t, "Mprobe", func(c *Comm) error {
		_, err := c.Mprobe(0, 9)
		return err
	})
}

func TestProbeBlockedOnRevoke(t *testing.T) {
	blockedOnRevoke(t, "Probe", func(c *Comm) error {
		_, err := c.Probe(AnySource, 9)
		return err
	})
}

// TestShrinkWithoutFailure: Shrink on a revoked but fully-alive
// communicator rebuilds the same group with working collectives — the
// degenerate recovery where the revocation was a false alarm.
func TestShrinkWithoutFailure(t *testing.T) {
	leakChecked(t)
	const n = 4
	err := Run(n, Options{UCP: hbUCP()}, func(c *Comm) error {
		if err := c.Revoke(); err != nil {
			return err
		}
		mask, err := c.Agree(0)
		if err != nil {
			return fmt.Errorf("rank %d: agree: %v", c.Rank(), err)
		}
		if mask != 0 {
			return fmt.Errorf("rank %d: agreed mask = %#x on an alive world", c.Rank(), mask)
		}
		nc, err := c.Shrink()
		if err != nil {
			return fmt.Errorf("rank %d: shrink: %v", c.Rank(), err)
		}
		if nc.Size() != n || nc.Rank() != c.Rank() {
			return fmt.Errorf("rank %d: shrunk to rank %d of %d, want identity", c.Rank(), nc.Rank(), nc.Size())
		}
		return nc.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAgreeMergesContributions: Agree ORs the callers' local masks even
// when no rank has failed (the ULFM flag-consensus idiom).
func TestAgreeMergesContributions(t *testing.T) {
	leakChecked(t)
	const n = 3
	err := Run(n, Options{UCP: hbUCP()}, func(c *Comm) error {
		local := uint64(0)
		if c.Rank() == 1 {
			local = 1 << 9 // a flag bit outside the rank space... within 64
		}
		mask, err := c.Agree(local)
		if err != nil {
			return err
		}
		if mask != 1<<9 {
			return fmt.Errorf("rank %d: agreed mask = %#x, want %#x", c.Rank(), mask, uint64(1)<<9)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailedIsLocalKnowledge: Failed reflects this rank's detector view;
// after a kill every survivor converges on the victim.
func TestFailedIsLocalKnowledge(t *testing.T) {
	leakChecked(t)
	const n = 3
	opt, fns := killableWorld(n)
	err := Run(n, opt, func(c *Comm) error {
		if c.Rank() == 2 {
			fns[2].Kill()
			return nil
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			f := c.Failed()
			if len(f) == 1 && f[0] == 2 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d: Failed() = %v, want [2]", c.Rank(), f)
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShrinkFencesExcludedLiveRank: one directed link dies (rank 2 can
// no longer reach rank 1) while every other path stays up — the
// asymmetric outage that produces a false-positive death verdict: rank
// 1 declares 2 dead, the agreement spreads the verdict, and the
// survivors shrink without 2. Rank 2 is alive and blocked in the
// agreement the survivors no longer run it through; the fence notice
// (deliverable here by rank 0, which never declared 2 failed) must
// convert that otherwise-forever wait into ErrExcluded.
func TestShrinkFencesExcludedLiveRank(t *testing.T) {
	leakChecked(t)
	const n, mute, excluder = 3, 2, 1
	opt := Options{
		UCP: hbUCP(),
		WrapNIC: func(rank int, nic fabric.NIC) fabric.NIC {
			if rank != mute {
				return nic
			}
			return fabric.WrapFault(nic, fabric.FaultPlan{Rules: []fabric.FaultRule{
				{Peer: excluder, Action: fabric.LinkDown, Prob: 1, Count: 1, Down: -1},
			}})
		},
	}
	err := Run(n, opt, func(c *Comm) error {
		send := make([]byte, 8)
		recv := make([]byte, 8)
		if c.Rank() == excluder {
			// The excluder observes the silence directly: a posted receive
			// from the mute rank fails when the detector declares it dead.
			if _, err := c.Recv(recv, 1, FromDDT(ddt.Int64), mute, 7); !errors.Is(err, ErrProcFailed) {
				return fmt.Errorf("excluder: recv from mute rank = %v, want ErrProcFailed", err)
			}
		} else {
			// Everyone else blocks in a collective the wedged excluder never
			// enters, until the revocation aborts it.
			layout.PutI64(send, 0, int64(c.Rank()+1))
			err := c.Allreduce(send, recv, 1, FromDDT(ddt.Int64), OpSumInt64)
			if !errors.Is(err, ErrProcFailed) && !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("rank %d: allreduce = %v, want a taxonomy error", c.Rank(), err)
			}
		}
		_ = c.Revoke()
		nc, err := c.Shrink()
		if c.Rank() == mute {
			if !errors.Is(err, ErrExcluded) {
				return fmt.Errorf("excluded rank: Shrink = %v, want ErrExcluded", err)
			}
			if !c.Fenced() {
				return errors.New("excluded rank: Fenced() = false after ErrExcluded")
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("rank %d: shrink: %v", c.Rank(), err)
		}
		if nc.Size() != n-1 {
			return fmt.Errorf("rank %d: shrunk size = %d, want %d", c.Rank(), nc.Size(), n-1)
		}
		layout.PutI64(send, 0, int64(nc.Rank()+1))
		if err := nc.Allreduce(send, recv, 1, FromDDT(ddt.Int64), OpSumInt64); err != nil {
			return fmt.Errorf("rank %d: allreduce on shrunk comm: %v", c.Rank(), err)
		}
		if got := layout.I64(recv, 0); got != 3 {
			return fmt.Errorf("rank %d: shrunk allreduce = %d, want 3", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
