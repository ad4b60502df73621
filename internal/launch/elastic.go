package launch

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/layout"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// The elastic task is the cross-process acceptance workload for rank
// death: a verified Allreduce loop in which a rank is SIGKILLed
// mid-collective (by itself on a deterministic iteration, or by the
// launcher's chaos schedule), survivors detect the death, Revoke +
// Agree + Shrink, poll the join service for the supervised respawn, and
// Grow it back in; the respawned process registers, runs JoinWorld, and
// rejoins the loop. The job succeeds only if the final communicator is
// back at the original world size with verified collectives.
//
// Iteration counts stay consistent across membership changes by
// consensus, not local bookkeeping: after every successful recovery (and
// after every join), the new communicator Allreduce-maxes the
// remaining-iteration count. A rank that completed iteration k while a
// peer failed it — or a fresh joiner holding no count at all — simply
// re-aligns to the group maximum.

// Env knobs for the elastic task.
const (
	EnvElasticIters  = "MPICD_ELASTIC_ITERS"  // Allreduce iterations (default 30)
	EnvElasticVictim = "MPICD_ELASTIC_VICTIM" // self-kill victim rank (default 1)
	EnvElasticKill   = "MPICD_ELASTIC_KILL"   // "self" (default) or "none" (launcher chaos drives)
	EnvElasticSpin   = "MPICD_ELASTIC_SPIN"   // optional per-iteration pause, e.g. "25ms"
	EnvElasticOut    = "MPICD_ELASTIC_OUT"    // rank 0 writes a JSON recovery report here
)

// elasticReport is the recovery telemetry rank 0 writes to
// MPICD_ELASTIC_OUT: how long the failing collective took to surface the
// death (detection latency) and how long the full shrink → respawn-wait
// → grow cycle ran.
type elasticReport struct {
	Transport  string  `json:"transport"`
	Ranks      int     `json:"ranks"`
	Iters      int     `json:"iters"`
	Recoveries int     `json:"recoveries"`
	DetectMs   float64 `json:"detect_ms"`
	RecoverMs  float64 `json:"recover_ms"`
}

// Elastic-task patience windows. The recovery window dominates: it must
// cover the supervisor's restart backoff plus the replacement's full
// reconnect, with slack for oversubscribed CI machines.
const (
	elasticJoinWindow    = 30 * time.Second
	elasticGrowWindow    = 15 * time.Second
	elasticRecoverWindow = 60 * time.Second
	elasticRejoinBudget  = 90 * time.Second
)

func elasticRecoverable(err error) bool {
	return errors.Is(err, core.ErrProcFailed) || errors.Is(err, core.ErrRevoked)
}

// elasticAllreduce is one verified iteration: an int64 sum whose
// expected value depends only on the current communicator size, so the
// same check holds before, during (shrunk), and after recovery.
func elasticAllreduce(c *core.Comm) error {
	const count = 8
	send, recv := make([]byte, 8*count), make([]byte, 8*count)
	for i := 0; i < count; i++ {
		layout.PutI64(send, 8*i, int64(c.Rank()+1)*1000+int64(i))
	}
	if err := c.Allreduce(send, recv, count, core.FromDDT(ddt.Int64), core.OpSumInt64); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		var want int64
		for r := 0; r < c.Size(); r++ {
			want += int64(r+1)*1000 + int64(i)
		}
		if got := layout.I64(recv, 8*i); got != want {
			return fmt.Errorf("rank %d: elastic sum[%d] = %d, want %d", c.Rank(), i, got, want)
		}
	}
	return nil
}

// missingRanks returns the world ranks absent from c, ascending.
func missingRanks(size int, c *core.Comm) []int {
	present := make([]bool, size)
	for _, fr := range c.FabricRanks() {
		if fr >= 0 && fr < size {
			present[fr] = true
		}
	}
	var out []int
	for r := 0; r < size; r++ {
		if !present[r] {
			out = append(out, r)
		}
	}
	return out
}

// elasticRecover runs the survivor side of one recovery cycle: fold the
// failure in (Revoke + Shrink), then keep polling the join service and
// growing until the communicator is back at full world size. Every
// survivor runs the identical collective sequence: Shrink, then per
// attempt Grow followed — only on an aborted grow — by an Agree that
// decides, identically everywhere, whether the surviving group itself
// lost a member and must re-shrink before retrying.
func elasticRecover(w *World, comm *core.Comm) (*core.Comm, error) {
	in := w.Info
	_ = comm.Revoke()
	sc, err := comm.Shrink()
	if err != nil {
		return nil, fmt.Errorf("shrink: %w", err)
	}
	step(in.Rank, "recover: shrunk to size %d (members %v)", sc.Size(), sc.FabricRanks())
	latest := make(map[int]core.JoinPeer)
	deadline := time.Now().Add(elasticRecoverWindow)
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("recovery window (%v) exhausted at size %d of %d",
				elasticRecoverWindow, sc.Size(), in.Size)
		}
		if f := sc.Failed(); len(f) > 0 {
			// Another member died since the last agreement; fold it in.
			step(in.Rank, "recover: members %v failed since last agreement; re-shrinking", f)
			_ = sc.Revoke()
			ns, err := sc.Shrink()
			if err != nil {
				return nil, fmt.Errorf("re-shrink: %w", err)
			}
			sc = ns
			step(in.Rank, "recover: re-shrunk to size %d (members %v)", sc.Size(), sc.FabricRanks())
			continue
		}
		missing := missingRanks(in.Size, sc)
		if len(missing) == 0 {
			return sc, nil
		}
		peers, _, err := w.PollRejoins(0)
		if err != nil {
			step(in.Rank, "recover: poll rejoins: %v", err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		for _, p := range peers {
			if old, seen := latest[p.Rank]; !seen || old != p {
				step(in.Rank, "recover: join record: rank %d at %s", p.Rank, p.Addr)
			}
			latest[p.Rank] = p // records arrive epoch-ascending: newest wins
		}
		args := make([]core.JoinPeer, 0, len(missing))
		for _, r := range missing {
			if p, ok := latest[r]; ok {
				args = append(args, p)
			}
		}
		if len(args) < len(missing) {
			// Replacements still booting; every survivor waits for the
			// full set so all Grow calls carry the same peer ranks.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		step(in.Rank, "recover: growing with joiners %v", missing)
		nc, gerr := sc.GrowWithin(args, elasticGrowWindow)
		step(in.Rank, "recover: grow result: size=%d err=%v", growSize(nc), gerr)
		if nc != nil {
			// Even with a failed opening barrier the grown communicator
			// is the new world; the next collective re-detects the death.
			return nc, nil
		}
		// The abort was agreed; now agree on WHY so every survivor makes
		// the same next move: a non-zero mask means the group itself lost
		// a member (re-shrink), zero means only the joiner side misfired
		// (stale record, slow boot, replacement died again) — re-poll.
		mask, aerr := sc.Agree(0)
		if aerr != nil {
			return nil, fmt.Errorf("post-abort agreement: %w (grow: %v)", aerr, gerr)
		}
		if mask != 0 {
			_ = sc.Revoke()
			ns, serr := sc.Shrink()
			if serr != nil {
				return nil, fmt.Errorf("re-shrink: %w", serr)
			}
			sc = ns
		}
	}
}

// step records one elastic-recovery step of rank into the process's
// control ring (obs.Control), which the EnvDebug dump prints.
func step(rank int, format string, args ...any) {
	obs.Ctl(rank, -1, fmt.Sprintf(format, args...), 0)
}

func growSize(c *core.Comm) int {
	if c == nil {
		return 0
	}
	return c.Size()
}

func taskElastic(w *World) error {
	in := w.Info
	iters, err := envInt(EnvElasticIters, 30)
	if err != nil {
		return err
	}
	victim, err := envInt(EnvElasticVictim, 1)
	if err != nil {
		return err
	}
	killMode := os.Getenv(EnvElasticKill)
	if killMode == "" {
		killMode = "self"
	}
	var spin time.Duration
	if v := os.Getenv(EnvElasticSpin); v != "" {
		if spin, err = time.ParseDuration(v); err != nil {
			return fmt.Errorf("launch: %s=%q: %w", EnvElasticSpin, v, err)
		}
	}
	if victim >= in.Size {
		victim = in.Size - 1
	}
	// The self-kill lands with a third of the loop still to go: late
	// enough that steady-state traffic is flowing, early enough that the
	// regrown world still has real iterations to verify.
	killAt := int64(iters - iters/3)

	var (
		comm       *core.Comm
		remaining  int64
		recoveries int
		detectMs   float64
		recoverMs  float64
	)

	if w.Rejoined() {
		deadline := time.Now().Add(elasticRejoinBudget)
		for {
			step(in.Rank, "task: join window opens")
			comm, err = w.Join(elasticJoinWindow)
			step(in.Rank, "task: join window closed: comm=%v err=%v", comm != nil, err)
			if comm != nil {
				break
			}
			if err != nil && !elasticRecoverable(err) && !errors.Is(err, ucp.ErrTimeout) {
				return fmt.Errorf("rejoin: %w", err)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rejoin budget exhausted: %w", err)
			}
		}
	} else {
		comm = w.Comm
		remaining = int64(iters)
	}

	// A fresh joiner has no iteration count yet; the post-recovery
	// consensus broadcast supplies it.
	needSync := w.Rejoined()
	for remaining > 0 || needSync {
		if needSync {
			// Consensus on the remaining count via Allreduce-max: a fresh
			// joiner contributes 0, survivors contribute counts that may
			// differ by one (a collective can succeed on some ranks and
			// fail on others); the max re-aligns everyone without having
			// to know which ranks are survivors.
			send, recv := make([]byte, 8), make([]byte, 8)
			layout.PutI64(send, 0, remaining)
			if err := comm.Allreduce(send, recv, 1, core.FromDDT(ddt.Int64), core.OpMaxInt64); err != nil {
				if !elasticRecoverable(err) {
					return err
				}
				if comm, err = elasticRecover(w, comm); err != nil {
					return err
				}
				recoveries++
				continue
			}
			remaining = layout.I64(recv, 0)
			needSync = false
			continue
		}
		if killMode == "self" && in.Epoch == 0 && in.Rank == victim && remaining == killAt {
			// Die mid-collective, not between collectives: the survivors
			// must cope with a peer that vanishes while the schedule is
			// in flight.
			go func() {
				time.Sleep(500 * time.Microsecond)
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}()
		}
		t0 := time.Now()
		err := elasticAllreduce(comm)
		if err == nil {
			remaining--
			if spin > 0 {
				time.Sleep(spin)
			}
			continue
		}
		if !elasticRecoverable(err) {
			return err
		}
		if detectMs == 0 {
			detectMs = float64(time.Since(t0).Microseconds()) / 1000
		}
		r0 := time.Now()
		if comm, err = elasticRecover(w, comm); err != nil {
			return err
		}
		if recoverMs == 0 {
			recoverMs = float64(time.Since(r0).Microseconds()) / 1000
		}
		recoveries++
		needSync = true
	}

	// Quiesce: the job only counts as recovered if the final
	// communicator is back at the original world size and functional.
	for {
		err := comm.Barrier()
		if err == nil && comm.Size() == in.Size {
			break
		}
		if err != nil && !elasticRecoverable(err) {
			return err
		}
		if comm, err = elasticRecover(w, comm); err != nil {
			return err
		}
		recoveries++
	}

	if out := os.Getenv(EnvElasticOut); out != "" && comm.Rank() == 0 {
		rep := elasticReport{
			Transport:  in.Transport,
			Ranks:      in.Size,
			Iters:      iters,
			Recoveries: recoveries,
			DetectMs:   detectMs,
			RecoverMs:  recoverMs,
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("rank %d: elastic done (size %d, %d recoveries)\n", comm.Rank(), comm.Size(), recoveries)
	return nil
}
