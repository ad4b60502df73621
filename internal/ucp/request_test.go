package ucp

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// TestRequestWaitConcurrent races everything that can complete a posted
// receive — the progress goroutine delivering a message, CancelRecv, the
// janitor's ReqTimeout and DeclarePeerFailed — against every way of
// waiting for it. Whoever wins, the request completes once, every waiter
// wakes and all of them read the same outcome. Each completer gets a head
// start in a quarter of the rounds so that each of them wins some. Run it
// under -race at GOMAXPROCS 1 and 2 (CI job eager-diet).
func TestRequestWaitConcurrent(t *testing.T) {
	const waitersPerKind = 3
	rounds := 48
	if testing.Short() {
		rounds = 16
	}
	wins := map[string]int{}
	for round := 0; round < rounds; round++ {
		o := obs.New(0)
		f := fabric.NewInproc(2, fabric.Config{Obs: o})
		a := NewWorker(f.NIC(0), Config{})
		b := NewWorker(f.NIC(1), Config{ReqTimeout: time.Millisecond})
		req, err := b.Recv(0, 1, exactMask, Contig{}, make([]byte, 8), 8)
		if err != nil {
			t.Fatal(err)
		}

		errs := make([]error, 4*waitersPerKind)
		var waiters sync.WaitGroup
		wait := func(i int, fn func() error) {
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				errs[i] = fn()
			}()
		}
		for k := 0; k < waitersPerKind; k++ {
			wait(4*k, req.Wait)
			wait(4*k+1, func() error {
				for {
					if done, err := req.Test(); done {
						return err
					}
					runtime.Gosched()
				}
			})
			wait(4*k+2, func() error {
				<-req.Done()
				_, err := req.Test()
				return err
			})
			wait(4*k+3, func() error { return req.WaitTimeout(time.Minute) })
		}

		// The janitor needs no goroutine: it fires on its own after
		// ReqTimeout, and wins the rounds where the others hold back.
		completers := []func(){
			func() {
				if sr, err := a.Send(1, 1, Contig{}, pattern(8, 1), 8, 0, ProtoEager); err == nil {
					_ = sr.Wait()
				}
			},
			func() { b.CancelRecv(req) },
			func() { b.DeclarePeerFailed(0) },
		}
		var racers sync.WaitGroup
		for i, fn := range completers {
			delay := 2 * time.Millisecond
			switch round % 4 {
			case i:
				delay = 0
			case 3:
				delay = 20 * time.Millisecond
			}
			racers.Add(1)
			go func() {
				defer racers.Done()
				time.Sleep(delay)
				fn()
			}()
		}

		woke := make(chan struct{})
		go func() { waiters.Wait(); close(woke) }()
		select {
		case <-woke:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: a waiter never woke", round)
		}
		racers.Wait()
		for i, e := range errs {
			if e != errs[0] {
				t.Fatalf("round %d: waiter %d saw %v, waiter 0 saw %v", round, i, e, errs[0])
			}
		}
		switch e := errs[0]; {
		case e == nil:
			wins["delivered"]++
		case errors.Is(e, ErrCanceled):
			wins["canceled"]++
		case errors.Is(e, ErrTimeout):
			wins["timeout"]++
		case errors.Is(e, ErrProcFailed):
			wins["peer failed"]++
		default:
			t.Fatalf("round %d: unexpected outcome %v", round, e)
		}
		a.Close()
		b.Close()
		poolDrained(t, f)
		// Every completion observes the size histogram once, and this
		// request is the only one rank 1 ever had.
		if n := o.Registry.Histogram("ucp.r1.msg_size_bytes").Count(); n != 1 {
			t.Fatalf("round %d: the request completed %d times", round, n)
		}
	}
	t.Logf("winners over %d rounds: %v", rounds, wins)
	for _, k := range []string{"delivered", "canceled", "timeout", "peer failed"} {
		if wins[k] == 0 {
			t.Errorf("%q never won a round: that completion path was not raced", k)
		}
	}
}

// TestRequestNoChannelUnlessAsked: Wait and Test sleep on no channel, so a
// request nobody selects on never makes one; Done on a completed request
// hands out a closed one.
func TestRequestNoChannelUnlessAsked(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	rr, err := b.Recv(0, 1, exactMask, Contig{}, make([]byte, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- rr.Wait() }()
	for !func() bool { rr.mu.Lock(); defer rr.mu.Unlock(); return rr.blocked }() {
		runtime.Gosched() // until the waiter really sleeps
	}
	sr, err := a.Send(1, 1, Contig{}, pattern(8, 1), 8, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if done, _ := rr.Test(); !done {
		t.Fatal("Test after Wait reports pending")
	}
	for _, r := range []*Request{sr, rr} {
		if r.done != nil {
			t.Fatal("a request nobody selected on made a channel")
		}
		select {
		case <-r.Done():
		default:
			t.Fatal("Done of a completed request is not closed")
		}
	}
}
