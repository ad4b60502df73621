package ucp

// Failure notification: when a peer process is declared dead — by liveness
// detection (liveness.go), by evidence only a dead process produces (a Get
// failing with ErrRankDead, the provider's hard peer-down report), or by
// the layer above — every operation bound to that peer completes with
// ErrProcFailed instead of hanging on a deadline that may not exist:
//
//   - posted receives from the peer (and AnySource receives whose only
//     possible remote senders are all dead) complete immediately, and so
//     do blocked probes, which are posted requests like them;
//   - matched eager receives mid-delivery fail (the remaining fragments
//     will never arrive);
//   - rendezvous pulls fail at their next Get — running, queued or waiting
//     out a retry back-off, every Get job checks the verdict first;
//   - rendezvous sends awaiting a FIN, and reliable eager sends awaiting
//     an ack (one table, Worker.sends), complete with the failure instead
//     of burning their retransmission budget;
//   - partially-buffered unexpected messages from the peer, claimed by
//     Mprobe or not, are marked errored so a late receive fails fast — but
//     fully-arrived messages stay deliverable, matching the MPI/ULFM rule
//     that messages handed to the transport before the death are still
//     receivable.
//
// Each failure cause selects from the same five tables and fails what it
// selects the same way (complete for the posted queue, failActive,
// finishSend): a death selects by peer, AbortWhere/PoisonWhere by matching
// criteria in the posted queue only, the janitor by deadline and retransmit
// budget, Close and the NIC going away everything.
//
// Death is sticky and per-worker near-monotone: dead[] bits go
// false→true on declaration and only an explicit Revive — the elastic
// re-admission of a respawned process under the same rank — flips one
// back. The lock-free hot-path checks need no fences beyond the atomics
// themselves; a send racing a revival may spuriously observe death one
// last time, which callers of Revive (the Grow protocol) absorb by
// sequencing revival before any traffic toward the new incarnation.

import (
	"fmt"
	"slices"
	"time"
)

func procFailedErr(rank int) error {
	return fmt.Errorf("%w: rank %d", ErrProcFailed, rank)
}

// PeerFailed reports whether rank has been declared dead on this worker.
func (w *Worker) PeerFailed(rank int) bool {
	return rank >= 0 && rank < len(w.dead) && w.dead[rank].Load()
}

// FailedPeers returns the ranks declared dead, ascending.
func (w *Worker) FailedPeers() []int {
	var out []int
	for r := range w.dead {
		if w.dead[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// allOtherPeersDead reports whether every rank except the local one is
// dead — the condition under which an AnySource receive can never be
// satisfied by a remote sender (loopback self-sends are not counted as
// possible senders here; a rank blocked in a receive is not concurrently
// self-sending on the path this guards).
func (w *Worker) allOtherPeersDead() bool {
	n := int64(w.Size() - 1)
	return n > 0 && w.deadCount.Load() >= n
}

// deadSourceErr returns the failure a receive or probe of `from` should
// report when its possible senders are gone, or nil.
func (w *Worker) deadSourceErr(from int) error {
	if from >= 0 {
		if w.PeerFailed(from) {
			return procFailedErr(from)
		}
		return nil
	}
	if w.allOtherPeersDead() {
		return fmt.Errorf("%w: every possible source is dead", ErrProcFailed)
	}
	return nil
}

// OnPeerFailure registers fn to run (outside the worker lock, in the
// declaring goroutine) each time a peer is newly declared dead. The
// recovery layer above uses it to poison communicators containing the
// dead rank.
func (w *Worker) OnPeerFailure(fn func(rank int)) {
	w.mu.Lock()
	w.onPeerFail = append(w.onPeerFail, fn)
	w.mu.Unlock()
}

// AbortWhere completes every posted-but-unmatched receive and every blocked
// probe satisfying pred with err, returning how many it failed. The layer
// above uses it to poison a revoked communicator's matching context without
// touching other communicators sharing the worker (pred sees each
// request's matching criteria).
func (w *Worker) AbortWhere(pred func(from int, tag, mask Tag) bool, err error) int {
	var failed []*Request
	w.mu.Lock()
	if !w.closed {
		failed = w.table.filterPosted(func(r *Request) bool {
			return !pred(r.from, r.tag, r.mask)
		})
	}
	w.mu.Unlock()
	for _, r := range failed {
		r.complete(-1, 0, 0, 0, err)
	}
	return len(failed)
}

// poisonRule is a standing AbortWhere: receives and probes arriving after
// the rule is installed fail at once if their matching criteria satisfy
// pred (admitLocked).
type poisonRule struct {
	pred func(from int, tag, mask Tag) bool
	err  error
}

// PoisonWhere is AbortWhere made permanent: it completes every currently
// posted receive or blocked probe satisfying pred with err AND installs
// pred as a standing rule that fails matching ones posted afterwards. The
// recovery layer needs the standing half because revocation races the
// communicator's own operations — a collective that passed its
// revocation check can post its receive after the abort sweep ran, and
// a one-shot sweep would leave that receive blocked forever on a
// context nobody will ever send to again. Rules accumulate for the
// worker's lifetime; install one per poisoned context, and only for
// contexts that are never reused (revoked communicators qualify — their
// ids are agreed monotonically).
func (w *Worker) PoisonWhere(pred func(from int, tag, mask Tag) bool, err error) int {
	w.mu.Lock()
	if !w.closed {
		w.poison = append(w.poison, poisonRule{pred: pred, err: err})
	}
	w.mu.Unlock()
	return w.AbortWhere(pred, err)
}

// DeclarePeerFailed marks rank dead and fails everything bound to it.
// Idempotent; safe to call from any goroutine, including the liveness
// tick and the pullers. The local rank cannot be declared dead.
func (w *Worker) DeclarePeerFailed(rank int) {
	if rank < 0 || rank >= len(w.dead) || rank == w.Rank() {
		return
	}
	if !w.dead[rank].CompareAndSwap(false, true) {
		return
	}
	w.deadCount.Add(1)
	w.stats.PeerFailures.Add(1)
	if w.live != nil {
		w.live.clearSuspect(rank) // suspicion resolved into death
	}
	if w.drain != nil {
		w.drain.nudge() // Close does not wait for a dead peer's answer
	}
	// Tell the provider too: an SHM ring producer parked on the dead
	// consumer's full ring unblocks only when the provider knows the
	// peer is gone, and a silence-based verdict may precede the socket
	// plane's own evidence.
	w.nic.DeclareRankDown(rank)
	err := procFailedErr(rank)
	allDead := w.allOtherPeersDead()

	var failedReqs, eagerOps, deadSends []*Request
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	failedReqs = w.table.filterPosted(func(r *Request) bool {
		return !(r.from == rank || (r.from < 0 && allDead))
	})
	for key, op := range w.active {
		if key.from == rank {
			delete(w.active, key)
			eagerOps = append(eagerOps, op)
		}
	}
	for id, s := range w.sends {
		if s.send.dst == rank {
			delete(w.sends, id)
			deadSends = append(deadSends, s)
		}
	}
	// Buffered messages from the dead peer: complete eager payloads stay
	// deliverable; anything that still needs the peer (missing fragments,
	// a rendezvous body to pull) is poisoned so a match fails fast.
	w.table.forEachUnexpected(func(m *unexMsg) {
		if m.from != rank || m.errored != nil {
			return
		}
		if m.rndv || m.buffered < m.total {
			w.markErrored(m, err)
		}
	})
	cbs := append([]func(int){}, w.onPeerFail...)
	w.mu.Unlock()

	for _, r := range failedReqs {
		r.complete(rank, 0, 0, 0, err)
	}
	for _, op := range eagerOps {
		w.failActive(op, err)
	}
	for _, s := range deadSends {
		w.finishSend(s, err)
	}
	for _, cb := range cbs {
		cb(rank)
	}
}

// Revive lifts rank's death record so a respawned process can be
// re-admitted under the same fabric rank (the Grow protocol calls it
// before any traffic flows toward the replacement). It purges every
// trace of the dead incarnation first — reliable-delivery dedup records
// (a fresh process restarts its message-id space, so stale records
// would swallow its first sends as duplicates), buffered unexpected
// messages (one claimed by Mprobe stays: its owner holds the handle) and
// the drain's record of it — then clears the dead bit and resets the
// provider's connection state.
// Liveness detection gives the replacement max(2×DeadAfter, 2 s) to boot.
// After Revive, operations on the rank work again and the rank can be
// declared failed anew.
func (w *Worker) Revive(rank int) error {
	if rank < 0 || rank >= len(w.dead) {
		return fmt.Errorf("ucp: revive rank %d out of range [0,%d)", rank, len(w.dead))
	}
	if rank == w.Rank() {
		return fmt.Errorf("ucp: rank %d cannot revive itself", rank)
	}
	var stale []*unexMsg
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWorkerClosed
	}
	w.completedFIFO = slices.DeleteFunc(w.completedFIFO, func(k msgKey) bool {
		if k.from == rank {
			delete(w.completed, k)
		}
		return k.from == rank
	})
	stale = w.table.filterUnexpected(func(m *unexMsg) bool { return m.from != rank })
	for _, m := range stale {
		w.releaseFrags(m)
	}
	w.mu.Unlock()
	w.resetDrain(rank)
	// The grace is stamped before the dead bit clears, so the liveness tick
	// never sees the rank alive with its predecessor's silence.
	if l := w.live; l != nil {
		l.lastSeen[rank].Store(time.Now().Add(max(2*w.cfg.Heartbeat.DeadAfter, 2*time.Second)).UnixNano())
		l.clearSuspect(rank)
	}
	if w.dead[rank].CompareAndSwap(true, false) {
		w.deadCount.Add(-1)
	}
	// Reset connection state last, so probes toward the still-booting
	// replacement start from a clean slate.
	w.nic.ReviveRank(rank)
	return nil
}

// UpdateAddr repoints the fabric at a respawned peer's new address. A
// replacement process generally cannot reuse its predecessor's listening
// endpoint (a new TCP listener gets a fresh ephemeral port), so the Grow
// protocol pushes the rejoin address down before any traffic flows.
// Fabrics without dialable addresses (in-process) never need the call and
// reject it so a misconfigured launcher fails loudly.
func (w *Worker) UpdateAddr(rank int, addr string) error {
	return w.nic.UpdateAddr(rank, addr)
}
