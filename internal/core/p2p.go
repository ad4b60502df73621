package core

import (
	"errors"
	"fmt"
	"time"

	"mpicd/internal/ucp"
)

// Status describes a completed receive.
type Status struct {
	// Source is the sending rank within the communicator.
	Source int
	// Tag is the matched user tag.
	Tag int
	// Bytes is the number of message payload bytes received.
	Bytes Count
	// Aux is the sender's auxiliary word (the packed-part length for
	// custom datatypes).
	Aux int64
}

// GetCount returns the number of dt elements in the received message
// (MPI_Get_count). For custom datatypes element counts are handler-defined
// and -1 is returned.
func (s Status) GetCount(dt *Datatype) Count {
	es := dt.elemSize()
	if es <= 0 {
		return -1
	}
	if s.Bytes%es != 0 {
		return -1
	}
	return s.Bytes / es
}

// Request is a pending nonblocking operation.
type Request struct {
	r    *ucp.Request
	comm *Comm
}

// Wait blocks until completion and returns the receive status (zero Status
// for sends).
func (r *Request) Wait() (Status, error) { return waitStatus(r.r) }

// waitStatus is Wait on the transport request: the blocking calls use it
// directly, so they never build the Request a nonblocking caller holds.
func waitStatus(r *ucp.Request) (Status, error) {
	err := r.Wait()
	return statusOf(r), err
}

// WaitTimeout blocks until completion or until d elapses, returning
// ErrTimeout in the latter case. The operation is not canceled; a late
// completion can still be observed with Test or Wait.
func (r *Request) WaitTimeout(d time.Duration) (Status, error) {
	err := r.r.WaitTimeout(d)
	if errors.Is(err, ucp.ErrTimeout) {
		return Status{}, err
	}
	return statusOf(r.r), err
}

// Test reports completion without blocking.
func (r *Request) Test() (bool, Status, error) {
	done, err := r.r.Test()
	if !done {
		return false, Status{}, nil
	}
	return true, statusOf(r.r), err
}

func statusOf(r *ucp.Request) Status {
	from, tag, n := r.Status()
	src, utag := decodeTag(tag)
	if from < 0 {
		src = -1
	}
	return Status{Source: src, Tag: utag, Bytes: n, Aux: r.Aux()}
}

// Cancel removes a posted receive that has not matched yet, reporting
// whether cancellation won the race with an incoming message (MPI_Cancel
// for receives). Canceling a send or an already-matched receive returns
// false; such requests must still be waited.
func (r *Request) Cancel() bool {
	return r.comm.w.CancelRecv(r.r)
}

// WaitAll waits for every request, returning the first error. After a
// failure the remaining requests are disposed of rather than waited
// blindly — a batch partner may be dead, and without a deadline its
// receives would never complete: unmatched receives are canceled,
// everything else is drained (the SendRecv error discipline applied to
// batches).
func WaitAll(reqs ...*Request) error {
	for i, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil {
			drainRequests(reqs[i+1:])
			return err
		}
	}
	return nil
}

// Isend starts a nonblocking send of count elements of dt at buf to (dst,
// tag).
func (c *Comm) Isend(buf any, count Count, dt *Datatype, dst, tag int) (*Request, error) {
	r, err := c.isend(buf, count, dt, dst, tag)
	if err != nil {
		return nil, err
	}
	return &Request{r: r, comm: c}, nil
}

func (c *Comm) isend(buf any, count Count, dt *Datatype, dst, tag int) (*ucp.Request, error) {
	if err := c.checkRevoked(); err != nil {
		return nil, err
	}
	fdst, err := c.checkDst(dst)
	if err != nil {
		return nil, err
	}
	if tag < 0 || tag > MaxTag {
		return nil, fmt.Errorf("core: tag %d out of range [0,%d]", tag, MaxTag)
	}
	return c.w.Send(fdst, c.sendTag(tag), dt.transport(), buf, count, 0, ucp.ProtoAuto)
}

// Send is the blocking form of Isend.
func (c *Comm) Send(buf any, count Count, dt *Datatype, dst, tag int) error {
	r, err := c.isend(buf, count, dt, dst, tag)
	if err != nil {
		return err
	}
	return r.Wait()
}

// Irecv posts a nonblocking receive of up to count elements of dt into buf
// from (src, tag); src may be AnySource and tag AnyTag.
func (c *Comm) Irecv(buf any, count Count, dt *Datatype, src, tag int) (*Request, error) {
	r, err := c.irecv(buf, count, dt, src, tag)
	if err != nil {
		return nil, err
	}
	return &Request{r: r, comm: c}, nil
}

func (c *Comm) irecv(buf any, count Count, dt *Datatype, src, tag int) (*ucp.Request, error) {
	if err := c.checkRevoked(); err != nil {
		return nil, err
	}
	from, t, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return nil, err
	}
	return c.w.Recv(from, t, mask, dt.transport(), buf, count)
}

// Recv is the blocking form of Irecv.
func (c *Comm) Recv(buf any, count Count, dt *Datatype, src, tag int) (Status, error) {
	r, err := c.irecv(buf, count, dt, src, tag)
	if err != nil {
		return Status{}, err
	}
	return waitStatus(r)
}

// SendRecv performs a combined send and receive (MPI_Sendrecv). Every
// error path disposes of the posted receive — canceling it if it has not
// matched, draining it otherwise — so no failed SendRecv leaves a pending
// operation referencing recvBuf behind.
func (c *Comm) SendRecv(sendBuf any, sendCount Count, sendDT *Datatype, dst, sendTag int,
	recvBuf any, recvCount Count, recvDT *Datatype, src, recvTag int) (Status, error) {
	rr, err := c.Irecv(recvBuf, recvCount, recvDT, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	discardRecv := func() {
		if !rr.Cancel() {
			_, _ = rr.Wait()
		}
	}
	sr, err := c.Isend(sendBuf, sendCount, sendDT, dst, sendTag)
	if err != nil {
		discardRecv()
		return Status{}, err
	}
	if _, err := sr.Wait(); err != nil {
		discardRecv()
		return Status{}, err
	}
	return rr.Wait()
}

// Message is a claimed matched message (MPI_Mprobe result).
type Message struct {
	Status
	m    *ucp.Message
	comm *Comm
}

func (c *Comm) probeStatus(m *ucp.Message) Status {
	src, utag := decodeTag(m.Tag)
	return Status{Source: src, Tag: utag, Bytes: m.Total, Aux: m.Aux0}
}

// Probe blocks until a message matching (src, tag) is available and
// returns its status without consuming it (MPI_Probe).
func (c *Comm) Probe(src, tag int) (Status, error) {
	if err := c.checkRevoked(); err != nil {
		return Status{}, err
	}
	from, t, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return Status{}, err
	}
	m, err := c.w.Probe(from, t, mask, true)
	if err != nil {
		return Status{}, err
	}
	return c.probeStatus(m), nil
}

// Iprobe is the nonblocking Probe; ok reports whether a message matched.
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	if err := c.checkRevoked(); err != nil {
		return Status{}, false, err
	}
	from, t, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return Status{}, false, err
	}
	m, err := c.w.Probe(from, t, mask, false)
	if err != nil || m == nil {
		return Status{}, false, err
	}
	return c.probeStatus(m), true, nil
}

// Mprobe blocks until a matching message is available and claims it for a
// later MRecv (MPI_Mprobe). This is the pattern Python bindings use to
// size receive allocations for serialized objects.
func (c *Comm) Mprobe(src, tag int) (*Message, error) {
	if err := c.checkRevoked(); err != nil {
		return nil, err
	}
	from, t, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return nil, err
	}
	m, err := c.w.Mprobe(from, t, mask, true)
	if err != nil {
		return nil, err
	}
	return &Message{Status: c.probeStatus(m), m: m, comm: c}, nil
}

// Improbe is the nonblocking Mprobe.
func (c *Comm) Improbe(src, tag int) (*Message, bool, error) {
	if err := c.checkRevoked(); err != nil {
		return nil, false, err
	}
	from, t, mask, err := c.recvMatch(src, tag)
	if err != nil {
		return nil, false, err
	}
	m, err := c.w.Mprobe(from, t, mask, false)
	if err != nil || m == nil {
		return nil, false, err
	}
	return &Message{Status: c.probeStatus(m), m: m, comm: c}, true, nil
}

// MRecv receives a message claimed by Mprobe (MPI_Mrecv).
func (c *Comm) MRecv(m *Message, buf any, count Count, dt *Datatype) (Status, error) {
	r, err := c.w.MRecv(m.m, dt.transport(), buf, count)
	if err != nil {
		return Status{}, err
	}
	return waitStatus(r)
}
