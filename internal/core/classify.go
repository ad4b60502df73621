package core

import (
	"errors"
	"fmt"
	"time"
)

// ULFM error classification for collectives.
//
// When a rank dies mid-collective, different survivors see the death
// through different symptoms depending on where their schedule was: a
// rank blocked on a receive from the victim is eventually poisoned by
// the failure detector and surfaces ErrProcFailed, but a rank whose
// next step is a *send* to the victim hits the torn-down link
// immediately and gets a raw ErrLinkDown — often milliseconds before
// the detector's DeadAfter window closes. Both ranks observed the same
// event; only one got the taxonomy error recovery code can act on.
//
// classifyCommErr closes that gap: when the worker runs a liveness
// detector, a link-level failure is held until the detector delivers
// its verdict (peer dead → ErrProcFailed, communicator revoked →
// ErrRevoked) or the verdict window expires, in which case the raw
// error stands — a transient link flap with nobody dead is still a
// link error. Without a detector there is no authority to reinterpret
// the failure and the raw error always stands (matrix tests that
// inject LinkDown without heartbeats rely on this).

// classifyCommErr maps a link-level collective failure into the ULFM
// taxonomy using the worker's failure detector, as described above.
// Errors that are nil, already classified, or not link failures pass
// through untouched.
func (c *Comm) classifyCommErr(err error) error {
	if err == nil || !errors.Is(err, ErrLinkDown) ||
		errors.Is(err, ErrProcFailed) || errors.Is(err, ErrRevoked) {
		return err
	}
	deadAfter := c.w.DeadAfter()
	if deadAfter == 0 {
		return err
	}
	// The peer fell silent at or before the link error, so the verdict
	// arrives within DeadAfter of *now*; the extra half-window plus a
	// constant absorbs probe cadence and scheduler slack.
	deadline := time.Now().Add(deadAfter + deadAfter/2 + 100*time.Millisecond)
	for {
		if c.Revoked() {
			return fmt.Errorf("%w (link failure during revocation: %v)", ErrRevoked, err)
		}
		if len(c.Failed()) > 0 {
			return fmt.Errorf("%w (detected after link failure: %v)", ErrProcFailed, err)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}
