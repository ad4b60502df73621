package core

// ULFM-style communicator recovery (User-Level Failure Mitigation: the
// MPI fault-tolerance proposal this file reproduces the core of). The
// model has four pieces:
//
//  1. Detection. The transport's heartbeat detector (ucp.Config.Heartbeat)
//     declares silent peers dead; every operation bound to a dead rank
//     fails with ErrProcFailed instead of hanging. Failed sets are local
//     knowledge: different ranks may notice different deaths at different
//     times.
//  2. Revoke. A rank that decides a communicator is broken calls Revoke:
//     the communicator is poisoned locally (pending receives on its
//     context abort, future operations fail with ErrRevoked) and a
//     revocation notice is flooded to every other rank on a reserved
//     control tag. Each rank re-floods once on first receipt, so the
//     notice survives the death of the revoker mid-broadcast.
//  3. Agree. Fault-tolerant agreement ORs each survivor's failed-rank
//     bitmask until every participant observes the same stable set —
//     the decision ranks need before they can rebuild.
//  4. Shrink. Builds a new communicator from the agreed survivors with a
//     fresh matching context, renumbered ranks and working collectives;
//     the application retries its collective there.
//
// Control traffic (revoke notices, agreement rounds) rides reserved
// collective-op tags (opRevoke/opAgree, colltag.go) that revocation
// deliberately does not abort, so recovery keeps working on a revoked
// communicator — exactly ULFM's rule that MPI_Comm_agree and
// MPI_Comm_shrink remain callable after MPI_Comm_revoke.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mpicd/internal/layout"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// ErrProcFailed re-exports the transport's peer-death verdict (ULFM's
// MPI_ERR_PROC_FAILED).
var ErrProcFailed = ucp.ErrProcFailed

// ErrRevoked reports an operation on a revoked communicator (ULFM's
// MPI_ERR_REVOKED).
var ErrRevoked = errors.New("core: communicator revoked")

// ErrExcluded reports that the surviving group agreed THIS rank into the
// failed set: the calling process is alive, but some survivor's failure
// detector declared it dead (an asymmetric link outage looks exactly
// like a crash from the silent side) and the agreement propagated that
// verdict. The verdict is not appealable — peers that declared this
// rank dead have already flushed its transport state and will never
// match its messages again — so the only correct responses are to stop
// (treat it as this process's own failure) or to continue on a
// communicator that never included the excluding peers. Retrying Shrink
// on the old communicator is specifically wrong: the survivors have
// moved on and will never join another agreement there, so the retry
// blocks forever.
var ErrExcluded = errors.New("core: rank agreed into the failed set by the surviving group")

// ulfmState is the per-communicator recovery state.
type ulfmState struct {
	revoked  atomic.Bool
	fenced   atomic.Bool   // the surviving group agreed this rank dead
	agreeSeq atomic.Uint64 // numbers Agree/Shrink calls on this comm
}

// Control-notice payloads on the opRevoke tag. Both are single bytes on
// the same matching criteria, so one posted listener receive hears both.
const (
	noticeRevoke = 1 // revocation flood (Revoke / revokeLocal)
	noticeFence  = 2 // exclusion verdict: the survivors shrank without you
)

// initULFM attaches recovery state to a freshly built communicator and
// starts its revoke listener.
func (c *Comm) initULFM() {
	c.rv = &ulfmState{}
	if c.Size() > 1 {
		go c.revokeListener()
	}
}

// checkRevoked gates every non-recovery operation on the communicator.
func (c *Comm) checkRevoked() error {
	if c.rv.revoked.Load() {
		return ErrRevoked
	}
	return nil
}

// Revoked reports whether the communicator has been revoked (locally or
// by a received notice).
func (c *Comm) Revoked() bool { return c.rv.revoked.Load() }

// Failed returns the comm ranks currently known (locally) to have
// failed, ascending. Different ranks may know different sets; Agree
// reconciles them.
func (c *Comm) Failed() []int {
	var out []int
	for _, fr := range c.w.FailedPeers() {
		if cr, ok := c.inverse[fr]; ok {
			out = append(out, cr)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// failedMask is Failed as a comm-rank bitmask (ranks ≥ 64 are dropped;
// Agree rejects such communicators anyway).
func (c *Comm) failedMask() uint64 {
	var m uint64
	for _, fr := range c.w.FailedPeers() {
		if cr, ok := c.inverse[fr]; ok && cr < 64 {
			m |= 1 << uint(cr)
		}
	}
	return m
}

// revokeCtrl builds the matching criteria for revoke notices on this
// communicator: context and op participate, source/epoch/seq do not —
// one posted receive hears any rank's notice.
func (c *Comm) revokeCtrl() (tag, mask ucp.Tag) {
	tag = ucp.Tag(c.ctx<<ctxShift | collBit | uint64(opRevoke)<<collOpShift)
	mask = ucp.Tag(uint64(0xFFFF)<<ctxShift | collBit | uint64(collOpMax)<<collOpShift)
	return tag, mask
}

// revokeListener runs for the communicator's lifetime: it keeps one
// receive posted on the revoke control tag, dispatches each notice by
// its payload byte — revocation (re-flooded once) or an exclusion
// verdict — and then keeps draining duplicates. It exits when the
// worker closes, when every peer is dead, or on any other terminal
// receive error.
func (c *Comm) revokeListener() {
	buf := make([]byte, 1)
	for {
		tag, mask := c.revokeCtrl()
		r, err := c.w.Recv(-1, tag, mask, TypeBytes.transport(), buf, 1)
		if err != nil {
			return
		}
		if err := r.Wait(); err != nil {
			if errors.Is(err, ucp.ErrTimeout) {
				continue // janitor deadline on a quiet comm; repost
			}
			obs.Ctl(c.w.Rank(), -1, "ulfm listener exit: "+err.Error(), 0)
			return
		}
		from, _, _ := r.Status()
		obs.Ctl(c.w.Rank(), from, "ulfm notice", int64(buf[0]))
		if buf[0] == noticeFence {
			c.fenceLocal()
		} else {
			c.revokeLocal(true)
		}
	}
}

// Revoke poisons the communicator (ULFM's MPI_Comm_revoke): pending
// receives on its context abort with ErrRevoked, future operations fail
// with ErrRevoked, and a notice is flooded to every other rank so their
// pending operations abort too. Idempotent, never collective, callable
// from any rank at any time. Agreement and shrinking remain available.
func (c *Comm) Revoke() error {
	c.revokeLocal(true)
	return nil
}

// revokeLocal performs the local half of revocation exactly once, then
// optionally floods the notice. Fire-and-forget sends: a dead rank's
// notice just vanishes, and the flooding (every informed rank re-floods
// once) covers the gaps.
func (c *Comm) revokeLocal(propagate bool) {
	if !c.rv.revoked.CompareAndSwap(false, true) {
		return
	}
	// Poison every pending receive and blocked probe on this context
	// except recovery control traffic (revoke listeners, agreement
	// rounds). The poison is standing, not a one-shot sweep: a collective
	// that passed its revocation check before the flag flipped may post
	// its receive after this sweep, and that receive must fail too —
	// nobody will ever send on a revoked context again.
	aborted := c.w.PoisonWhere(func(from int, tag, mask ucp.Tag) bool {
		if uint64(tag)>>ctxShift&0xFFFF != c.ctx {
			return false
		}
		if uint64(tag)&collBit != 0 {
			op := collOp(uint64(tag) >> collOpShift & collOpMax)
			if op == opRevoke || op == opAgree {
				return false
			}
		}
		return true
	}, ErrRevoked)
	obs.Ctl(c.w.Rank(), -1, "ulfm revoked", int64(aborted))
	if !propagate {
		return
	}
	notice := []byte{noticeRevoke}
	flooded := 0
	for r := 0; r < c.Size(); r++ {
		if r == c.rank || c.w.PeerFailed(c.group[r]) {
			continue
		}
		// Not waited: a peer that dies mid-flood must not stall the
		// revoker, and transport-level failure notification completes
		// the request either way.
		if _, err := c.w.Send(c.group[r], c.collTag(opRevoke, 0, 0), TypeBytes.transport(), notice, 1, 0, ucp.ProtoEager); err != nil {
			obs.Ctl(c.w.Rank(), c.group[r], "ulfm notice refused: "+err.Error(), 0)
		} else {
			flooded++
		}
	}
	obs.Ctl(c.w.Rank(), -1, "ulfm flood", int64(flooded))
}

// Fenced reports whether the surviving group agreed this live rank into
// the failed set (see ErrExcluded).
func (c *Comm) Fenced() bool { return c.rv.fenced.Load() }

// fenceLocal applies an exclusion verdict: the survivors completed an
// agreement whose failed set contains this rank and have moved on, so no
// collective on this communicator — including the recovery control
// collectives — can ever complete again. Revocation alone is not enough:
// Agree and Shrink deliberately survive revocation, and an excluded rank
// blocked in an agreement round would wait forever for peers that now
// skip it. The fence aborts those receives too, with ErrExcluded, and
// marks the communicator so later agreement attempts fail fast.
func (c *Comm) fenceLocal() {
	c.revokeLocal(false)
	if !c.rv.fenced.CompareAndSwap(false, true) {
		return
	}
	c.w.PoisonWhere(func(from int, tag, mask ucp.Tag) bool {
		if uint64(tag)>>ctxShift&0xFFFF != c.ctx {
			return false
		}
		if uint64(tag)&collBit != 0 {
			// Keep the notice listener posted so duplicates keep draining.
			if collOp(uint64(tag)>>collOpShift&collOpMax) == opRevoke {
				return false
			}
		}
		return true
	}, ErrExcluded)
}

// agreeMaxRounds bounds agreement; the seq tag field wraps at 256, and a
// complete-graph exchange converges in 2 rounds once the failed sets
// stop changing, so hitting this cap means rank churn outlasted it.
const agreeMaxRounds = 200

// agreePayload is [mask:8][cid:8][stable:1].
const agreePayload = 17

// Agree is fault-tolerant agreement on the failed-rank set (ULFM's
// MPI_Comm_agree over the standard uint64 bitmask): it ORs local (a
// caller-supplied contribution, often 0) with every rank's known-failed
// mask and returns when all live ranks hold the same stable result.
// Collective over the live ranks — every survivor must call it, in the
// same order relative to other Agree/Shrink calls on this communicator.
// It operates on a revoked communicator.
//
// A rank whose death is observed only by some survivors during the
// final round can strand a straggler waiting for a round nobody else
// runs; configure ucp.Config.ReqTimeout to bound that window (the
// detector-declared deaths that matter for recovery are delivered as
// ErrProcFailed regardless).
func (c *Comm) Agree(local uint64) (uint64, error) {
	mask, _, err := c.agreeFull(local, 0)
	return mask, err
}

// agreeFull runs the agreement rounds, additionally carrying the maximum
// of every rank's cid proposal (Shrink agrees on the next context id in
// the same rounds that agree on the survivor set).
func (c *Comm) agreeFull(local, cid uint64) (uint64, uint64, error) {
	n := c.Size()
	if n > 64 {
		return 0, 0, fmt.Errorf("%w: agreement supports at most 64 ranks (communicator has %d)", ErrInvalidComm, n)
	}
	// failedMask only sets bits of ranks in this communicator; local may
	// carry arbitrary flag bits (the ULFM flag-consensus idiom) and is
	// passed through untouched.
	mask := local | c.failedMask()
	if n == 1 {
		return mask, cid, nil
	}
	agreement := c.rv.agreeSeq.Add(1)
	stable := false
	out := make([]byte, agreePayload)
	in := make([]byte, agreePayload*n)
	sends := make([]*Request, 0, n-1)
	peers := make([]int, 0, n-1)
	for round := 0; round < agreeMaxRounds; round++ {
		if c.rv.fenced.Load() {
			return 0, 0, fmt.Errorf("%w: agreement abandoned", ErrExcluded)
		}
		peers = peers[:0]
		for r := 0; r < n; r++ {
			if r != c.rank && mask&(1<<uint(r)) == 0 {
				peers = append(peers, r)
			}
		}
		if len(peers) == 0 {
			return mask, cid, nil
		}
		layout.PutI64(out, 0, int64(mask))
		layout.PutI64(out, 8, int64(cid))
		out[16] = 0
		if stable {
			out[16] = 1
		}
		newMask := mask
		allEqual, allStable := true, true
		sends = sends[:0]
		for _, r := range peers {
			sr, err := c.collIsend(out, agreePayload, TypeBytes, r, opAgree, agreement, round)
			if err != nil {
				if errors.Is(err, ErrProcFailed) {
					newMask |= 1 << uint(r)
					allEqual, allStable = false, false
					continue
				}
				drainRequests(sends)
				return 0, 0, err
			}
			sends = append(sends, sr)
		}
		for _, r := range peers {
			pb := in[agreePayload*r : agreePayload*(r+1)]
			if err := c.collRecv(pb, agreePayload, TypeBytes, r, opAgree, agreement, round); err != nil {
				if errors.Is(err, ErrProcFailed) {
					newMask |= 1 << uint(r)
					allEqual, allStable = false, false
					continue
				}
				drainRequests(sends)
				return 0, 0, err
			}
			pm := uint64(layout.I64(pb, 0))
			newMask |= pm
			if pcid := uint64(layout.I64(pb, 8)); pcid > cid {
				cid = pcid
			}
			if pm != mask {
				allEqual = false
			}
			if pb[16] == 0 {
				allStable = false
			}
		}
		drainRequests(sends)
		unchanged := newMask == mask
		if stable && unchanged && allEqual && allStable {
			// Everyone advertised a stable, identical mask this round —
			// with the complete-graph exchange, every survivor observed
			// the same thing and exits here too. The cid maximum also
			// propagated to all in one full exchange, so it is agreed.
			return mask, cid, nil
		}
		stable = unchanged && allEqual
		mask = newMask
	}
	return 0, 0, fmt.Errorf("%w: agreement did not converge within %d rounds", ErrInvalidComm, agreeMaxRounds)
}

// Shrink builds a new communicator from the survivors (ULFM's
// MPI_Comm_shrink): the failed set and the next context id are agreed in
// one agreement, the survivors keep their relative order with renumbered
// ranks, and the result has a fresh matching context, fresh collective
// epoch space, working collectives and its own revoke listener.
// Collective over the live ranks; it operates on a revoked communicator.
func (c *Comm) Shrink() (*Comm, error) {
	mask, cid, err := c.agreeFull(0, *c.nextCID)
	if err != nil {
		return nil, err
	}
	if mask&(1<<uint(c.rank)) != 0 {
		return nil, fmt.Errorf("%w: shrink: calling rank %d is in the agreed failed set", ErrExcluded, c.rank)
	}
	if cid >= 1<<16 {
		return nil, fmt.Errorf("%w: communicator context ids exhausted", ErrInvalidComm)
	}
	// Fence the excluded: a rank in the agreed failed set may well be
	// alive (an asymmetric link outage reads as death from the silent
	// side) and blocked in an agreement round the survivors will never
	// run. Every survivor notifies every excluded rank it can still
	// reach — redundant on purpose, since the links that caused the
	// false verdict may drop any single notice.
	notice := []byte{noticeFence}
	for r := 0; r < c.Size(); r++ {
		if mask&(1<<uint(r)) == 0 || r == c.rank || c.w.PeerFailed(c.group[r]) {
			continue
		}
		_, _ = c.w.Send(c.group[r], c.collTag(opRevoke, 0, 0), TypeBytes.transport(), notice, 1, 0, ucp.ProtoEager)
	}
	*c.nextCID = cid + 1
	group := make([]int, 0, c.Size())
	inverse := make(map[int]int, c.Size())
	myRank := -1
	for r := 0; r < c.Size(); r++ {
		if mask&(1<<uint(r)) != 0 {
			continue
		}
		if r == c.rank {
			myRank = len(group)
		}
		inverse[c.group[r]] = len(group)
		group = append(group, c.group[r])
	}
	nc := &Comm{
		w: c.w, ctx: cid, group: group, inverse: inverse, rank: myRank,
		nextCID: c.nextCID, collEpoch: new(atomic.Uint64), tuning: c.tuning,
	}
	nc.initULFM()
	return nc, nil
}
