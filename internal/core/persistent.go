package core

import (
	"errors"
	"fmt"
)

// Persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start): the
// argument binding is fixed once and the operation restarted per
// iteration — the natural fit for the repeated halo exchanges the
// DDTBench kernels model.

// PersistentRequest is a reusable operation binding.
type PersistentRequest struct {
	comm   *Comm
	isSend bool

	buf   any
	count Count
	dt    *Datatype

	// send side
	dst, stag int
	// recv side
	src, rtag int

	active *Request
}

// SendInit creates a persistent send binding (MPI_Send_init).
func (c *Comm) SendInit(buf any, count Count, dt *Datatype, dst, tag int) (*PersistentRequest, error) {
	if _, err := c.checkDst(dst); err != nil {
		return nil, err
	}
	if tag < 0 || tag > MaxTag {
		return nil, fmt.Errorf("core: tag %d out of range [0,%d]", tag, MaxTag)
	}
	return &PersistentRequest{comm: c, isSend: true, buf: buf, count: count, dt: dt, dst: dst, stag: tag}, nil
}

// RecvInit creates a persistent receive binding (MPI_Recv_init).
func (c *Comm) RecvInit(buf any, count Count, dt *Datatype, src, tag int) (*PersistentRequest, error) {
	if _, _, _, err := c.recvMatch(src, tag); err != nil {
		return nil, err
	}
	return &PersistentRequest{comm: c, buf: buf, count: count, dt: dt, src: src, rtag: tag}, nil
}

// ErrActive reports a Start on an already-started persistent request.
var ErrActive = errors.New("core: persistent request already active")

// Start launches one instance of the bound operation (MPI_Start). A
// Start that fails (revoked communicator, dead destination) leaves the
// request inactive: the previous instance's completed state is
// discarded so a later Wait cannot mistake it for this iteration's
// result.
func (p *PersistentRequest) Start() error {
	if p.active != nil {
		if done, _, _ := p.active.Test(); !done {
			return ErrActive
		}
		p.active = nil
	}
	var (
		r   *Request
		err error
	)
	if p.isSend {
		r, err = p.comm.Isend(p.buf, p.count, p.dt, p.dst, p.stag)
	} else {
		r, err = p.comm.Irecv(p.buf, p.count, p.dt, p.src, p.rtag)
	}
	if err != nil {
		return err
	}
	p.active = r
	return nil
}

// Wait blocks for the current instance (MPI_Wait on a started persistent
// request). The binding stays valid for another Start.
func (p *PersistentRequest) Wait() (Status, error) {
	if p.active == nil {
		return Status{}, errors.New("core: persistent request not started")
	}
	return p.active.Wait()
}

// Test polls the current instance.
func (p *PersistentRequest) Test() (bool, Status, error) {
	if p.active == nil {
		return false, Status{}, errors.New("core: persistent request not started")
	}
	return p.active.Test()
}

// StartAll starts a set of persistent requests (MPI_Startall).
func StartAll(ps ...*PersistentRequest) error {
	for _, p := range ps {
		if p == nil {
			continue
		}
		if err := p.Start(); err != nil {
			return err
		}
	}
	return nil
}

// WaitAllPersistent waits for every started instance. Inactive requests
// — never started, or whose last Start failed — are skipped, matching
// MPI_Waitall's treatment of inactive persistent requests: after a
// partial StartAll failure the started prefix still completes and the
// caller sees its real errors, not a "not started" complaint about the
// requests the failure prevented from launching.
func WaitAllPersistent(ps ...*PersistentRequest) error {
	var first error
	for _, p := range ps {
		if p == nil || p.active == nil {
			continue
		}
		if _, err := p.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
