package ucp

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mpicd/internal/fabric"
)

// Regression: a blocking Probe used to loop on cond.Wait with no deadline,
// ignoring Config.ReqTimeout entirely — a probe against a silent peer hung
// forever even though a Recv in the same configuration would time out.
func TestProbeBlockingTimeout(t *testing.T) {
	cfg := Config{ReqTimeout: 20 * time.Millisecond}
	_, b := pair(t, fabric.Config{}, cfg)
	start := time.Now()
	m, err := b.Probe(-1, 5, exactMask, true)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("blocking probe with no sender = (%v, %v), want ErrTimeout", m, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("probe took %v to time out (janitor wake missing?)", took)
	}
	if b.Stats().Timeouts.Load() == 0 {
		t.Fatal("Timeouts counter did not advance")
	}
}

// A blocking Mprobe against a peer whose link is down (every outbound
// packet dropped at the sender NIC) must honor the deadline too.
func TestMprobeBlockingTimeoutLinkDown(t *testing.T) {
	downPlan := fabric.FaultPlan{Seed: 1, Rules: []fabric.FaultRule{
		{Peer: 1, Action: fabric.LinkDown, Prob: 1, Count: 1, Down: -1},
	}}
	cfg := reliableCfg()
	cfg.ReqTimeout = 30 * time.Millisecond
	cfg.RexmitRetries = 3
	f := fabric.NewInproc(2, reliableFab())
	a := NewWorker(fabric.WrapFault(f.NIC(0), downPlan), cfg)
	b := NewWorker(f.NIC(1), cfg)
	defer func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	}()

	data := pattern(4000, 2)
	if _, err := a.Send(1, 3, Contig{}, data, 4000, 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	// Nothing from rank 0 ever arrives at rank 1.
	if m, err := b.Mprobe(0, 3, exactMask, true); !errors.Is(err, ErrTimeout) {
		t.Fatalf("mprobe across down link = (%v, %v), want ErrTimeout", m, err)
	}
}

// An eager message whose fragments are corrupted in flight before any
// match: the checksum layer drops the corrupt copies, retransmission
// repairs them, and a blocking Mprobe still observes the message and
// MRecv delivers intact bytes.
func TestMprobeCorruptEagerFragmentBeforeMatch(t *testing.T) {
	corruptPlan := fabric.FaultPlan{Seed: 7, Rules: []fabric.FaultRule{
		{Peer: -1, Action: fabric.Corrupt, Prob: 1, Count: 3},
	}}
	cfg := reliableCfg()
	cfg.ReqTimeout = 2 * time.Second
	f := fabric.NewInproc(2, reliableFab())
	a := NewWorker(fabric.WrapFault(f.NIC(0), corruptPlan), cfg)
	b := NewWorker(f.NIC(1), cfg)
	defer func() {
		a.Close()
		b.Close()
		poolDrained(t, f)
	}()

	const size = 5000 // spans several 1 KiB fragments
	data := pattern(size, 3)
	sr, err := a.Send(1, 9, Contig{}, data, size, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Mprobe(0, 9, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != size {
		t.Fatalf("probed size = %d, want %d", m.Total, size)
	}
	out := make([]byte, size)
	rr, err := b.MRecv(m, Contig{}, out, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("bytes corrupted in delivery")
	}
	if b.Stats().CorruptDrops.Load() == 0 {
		t.Fatal("CorruptDrops counter did not advance")
	}
}

// Closing the worker must wake a blocked probe with ErrWorkerClosed.
func TestProbeBlockingWorkerClose(t *testing.T) {
	_, b := pair(t, fabric.Config{}, Config{})
	done := make(chan error, 1)
	go func() {
		_, err := b.Probe(-1, 1, exactMask, true)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWorkerClosed) {
			t.Fatalf("probe on closed worker = %v, want ErrWorkerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("probe did not wake on Close")
	}
}

// Regression: MRecv used to clear m.claimed before checking w.closed, so
// failing with ErrWorkerClosed stranded the message — a retry on the same
// handle was rejected as unclaimed ("requires a message claimed by
// Mprobe") instead of reporting the real condition.
func TestMRecvClosedWorkerPreservesClaim(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	data := pattern(64, 5)
	if _, err := a.Send(1, 4, Contig{}, data, 64, 0, ProtoEager); err != nil {
		t.Fatal(err)
	}
	m, err := b.Mprobe(0, 4, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	out := make([]byte, 64)
	if _, err := b.MRecv(m, Contig{}, out, 64); !errors.Is(err, ErrWorkerClosed) {
		t.Fatalf("MRecv on closed worker = %v, want ErrWorkerClosed", err)
	}
	// The claim survives the failure: a retry reports the same closed
	// condition rather than the misleading unclaimed-message error.
	_, err = b.MRecv(m, Contig{}, out, 64)
	if !errors.Is(err, ErrWorkerClosed) {
		t.Fatalf("retried MRecv = %v, want ErrWorkerClosed", err)
	}
	if err != nil && strings.Contains(err.Error(), "requires a message claimed") {
		t.Fatalf("retried MRecv lost the claim: %v", err)
	}
}

// A claimed eager message whose tail never arrives must fail within
// Config.ReqTimeout through MRecv exactly as it does through Recv: the
// janitor only sweeps receives that carry a deadline.
func TestMRecvHonorsReqTimeout(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{})
	raw := f.NIC(0)
	b := NewWorker(f.NIC(1), Config{ReqTimeout: 50 * time.Millisecond})
	defer func() {
		b.Close()
		poolDrained(t, f)
	}()
	// Fragment 0 of a 4 KiB message, and nothing after it.
	hdr := fabric.Header{Kind: kindEager, Tag: 5, MsgID: 1, Total: 4096}
	if err := raw.Send(1, hdr, pattern(1024, 1)); err != nil {
		t.Fatal(err)
	}
	m, err := b.Mprobe(0, 5, exactMask, true)
	if err != nil {
		t.Fatal(err)
	}
	req, err := b.MRecv(m, Contig{}, make([]byte, 4096), 4096)
	if err != nil {
		t.Fatal(err)
	}
	err = req.WaitTimeout(2 * time.Second)
	if done, _ := req.Test(); !done {
		t.Fatal("MRecv of a message missing its tail is still pending after 40 x ReqTimeout")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("MRecv = %v, want ErrTimeout", err)
	}
}

// waitPosted returns once n receives or blocked probes sit in w's posted
// queue: a blocking probe is a posted request, so this is how a test knows
// a prober it started is really waiting.
func waitPosted(t *testing.T, w *Worker, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); w.QueueDepths().Posted != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("posted depth is %d, want %d", w.QueueDepths().Posted, n)
		}
	}
}

type probeResult struct {
	m   *Message
	err error
}

// goProbe starts a blocking probe (a claim when claim is set) on its own
// goroutine.
func goProbe(w *Worker, from int, tag Tag, claim bool) <-chan probeResult {
	out := make(chan probeResult, 1)
	go func() {
		probe := w.Probe
		if claim {
			probe = w.Mprobe
		}
		m, err := probe(from, tag, exactMask, true)
		out <- probeResult{m, err}
	}()
	return out
}

func awaitProbe(t *testing.T, what string, ch <-chan probeResult) probeResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s is still blocked after 5 s", what)
		return probeResult{}
	}
}

// AbortWhere fails posted receives whose matching criteria it selects; a
// blocked Probe or Mprobe is a posted request and must fail with them. It
// used to be woken by a broadcast and go back to sleep, with no deadline to
// save it.
func TestProbeBlockedAbortWhere(t *testing.T) {
	errGone := errors.New("context gone")
	_, b := pair(t, fabric.Config{}, Config{})
	peek := goProbe(b, 0, 9, false)
	claim := goProbe(b, -1, 9, true)
	other := goProbe(b, 0, 8, false) // not selected: stays blocked
	waitPosted(t, b, 3)
	n := b.AbortWhere(func(from int, tag, mask Tag) bool { return tag == 9 }, errGone)
	if n != 2 {
		t.Errorf("AbortWhere failed %d requests, want the 2 probes of tag 9", n)
	}
	for what, ch := range map[string]<-chan probeResult{"Probe": peek, "Mprobe": claim} {
		if r := awaitProbe(t, what, ch); !errors.Is(r.err, errGone) || r.m != nil {
			t.Errorf("%s after AbortWhere = (%v, %v), want the abort's error", what, r.m, r.err)
		}
	}
	select {
	case r := <-other:
		t.Fatalf("probe of an untouched tag returned (%v, %v)", r.m, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	if d := b.QueueDepths().Posted; d != 1 {
		t.Errorf("posted depth = %d, want the one untouched probe", d)
	}
}

// PoisonWhere is standing: a probe that arrives after it fails at once, as
// a Recv does, instead of posting on a context nobody will send on again.
func TestProbePoisonedContextFailsAtPost(t *testing.T) {
	errGone := errors.New("context gone")
	a, b := pair(t, fabric.Config{}, Config{})
	b.PoisonWhere(func(from int, tag, mask Tag) bool { return tag == 9 }, errGone)
	for _, claim := range []bool{false, true} {
		if r := awaitProbe(t, "probe of a poisoned context", goProbe(b, 0, 9, claim)); !errors.Is(r.err, errGone) {
			t.Errorf("claim=%v: probe after PoisonWhere = (%v, %v), want the poison's error", claim, r.m, r.err)
		}
	}
	// Other contexts are untouched.
	sr, err := a.Send(1, 8, Contig{}, pattern(16, 1), 16, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	if r := awaitProbe(t, "probe of a healthy context", goProbe(b, 0, 8, false)); r.err != nil || r.m.Total != 16 {
		t.Fatalf("probe = (%v, %v)", r.m, r.err)
	}
	rr, err := b.Recv(0, 8, exactMask, Contig{}, make([]byte, 16), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
}

// Blocked probes take their turn in the posted queue. A Probe posted before
// a receive is completed by the arrival the receive then consumes; two
// Probes both complete on one arrival; an Mprobe posted before a receive
// takes the message and the receive stays posted. Eager, rendezvous and
// loopback arrivals go through the same place.
func TestProbePostOrder(t *testing.T) {
	const size = 3000 // three fragments when eager
	for _, tc := range []struct {
		name  string
		self  bool
		proto Proto
	}{{"eager", false, ProtoEager}, {"rndv", false, ProtoRndv}, {"self", true, ProtoAuto}} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pair(t, fabric.Config{FragSize: 1024}, Config{})
			src, from := a, 0
			if tc.self {
				src, from = b, 1
			}
			send := func(tag Tag, seed byte) (*Request, []byte) {
				data := pattern(size, seed)
				sr, err := src.Send(1, tag, Contig{}, data, size, 0, tc.proto)
				if err != nil {
					t.Fatal(err)
				}
				return sr, data
			}

			// Two peeks, then a receive: one arrival satisfies all three.
			p1 := goProbe(b, from, 5, false)
			waitPosted(t, b, 1)
			p2 := goProbe(b, -1, 5, false)
			waitPosted(t, b, 2)
			out := make([]byte, size)
			rr, err := b.Recv(from, 5, exactMask, Contig{}, out, size)
			if err != nil {
				t.Fatal(err)
			}
			sr, data := send(5, 1)
			for what, ch := range map[string]<-chan probeResult{"first Probe": p1, "second Probe": p2} {
				r := awaitProbe(t, what, ch)
				if r.err != nil || r.m.From != from || r.m.Tag != 5 || r.m.Total != size {
					t.Fatalf("%s = (%+v, %v)", what, r.m, r.err)
				}
			}
			if err := WaitAll(sr, rr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("the receive posted behind two probes got the wrong bytes")
			}

			// An Mprobe, then a receive: the Mprobe takes the first message,
			// the receive the second.
			mp := goProbe(b, from, 6, true)
			waitPosted(t, b, 1)
			rr, err = b.Recv(from, 6, exactMask, Contig{}, out, size)
			if err != nil {
				t.Fatal(err)
			}
			sr1, data1 := send(6, 2)
			r := awaitProbe(t, "Mprobe", mp)
			if r.err != nil || r.m.Total != size {
				t.Fatalf("Mprobe = (%+v, %v)", r.m, r.err)
			}
			if done, _ := rr.Test(); done {
				t.Fatal("the receive posted behind an Mprobe consumed the Mprobe's message")
			}
			if d := b.QueueDepths(); d.Posted != 1 || d.Claimed != 1 || d.Unexpected != 0 {
				t.Fatalf("depths = %+v, want the receive still posted and one claimed message", d)
			}
			claimed := make([]byte, size)
			mr, err := b.MRecv(r.m, Contig{}, claimed, size)
			if err != nil {
				t.Fatal(err)
			}
			if err := WaitAll(sr1, mr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(claimed, data1) {
				t.Fatal("MRecv of the claimed message got the wrong bytes")
			}
			sr2, data2 := send(6, 3)
			if err := WaitAll(sr2, rr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data2) {
				t.Fatal("the receive behind the Mprobe got the wrong bytes")
			}
			if d := b.QueueDepths(); d.Posted != 0 || d.Claimed != 0 || d.Unexpected != 0 {
				t.Fatalf("depths at the end = %+v, want all zero", d)
			}
		})
	}
}

// TestProbeWaitConcurrent is TestRequestWaitConcurrent for blocked probes:
// Probe and Mprobe, from rank 0 and from any source, race a message
// arriving, Close, DeclarePeerFailed, AbortWhere and a 50 ms ReqTimeout.
// Whoever wins, every prober returns with one of the outcomes those causes
// can produce, a claimed message can be received, and every wire packet is
// released. Each cause gets a head start in some rounds so that each of
// them wins some. Run it under -race at GOMAXPROCS 1 and 2 (CI job
// eager-diet).
func TestProbeWaitConcurrent(t *testing.T) {
	errAborted := errors.New("aborted")
	rounds := 40
	if testing.Short() {
		rounds = 15
	}
	wins := map[string]int{}
	for round := 0; round < rounds; round++ {
		f := fabric.NewInproc(2, fabric.Config{FragSize: 1024})
		a := NewWorker(f.NIC(0), Config{})
		b := NewWorker(f.NIC(1), Config{ReqTimeout: 50 * time.Millisecond})
		var probers []<-chan probeResult
		for _, claim := range []bool{false, true} {
			for _, from := range []int{0, -1} {
				probers = append(probers, goProbe(b, from, 1, claim))
			}
		}
		waitPosted(t, b, len(probers))

		// The janitor needs no goroutine: it fires by itself after
		// ReqTimeout, and wins the rounds where the others hold back.
		causes := []func(){
			func() {
				// Two messages, so that both Mprobes can win one.
				for i := 0; i < 2; i++ {
					if sr, err := a.Send(1, 1, Contig{}, pattern(2500, 1), 2500, 0, ProtoEager); err == nil {
						_ = sr.Wait()
					}
				}
			},
			func() { b.Close() },
			func() { b.DeclarePeerFailed(0) },
			func() { b.AbortWhere(func(from int, tag, mask Tag) bool { return tag == 1 }, errAborted) },
		}
		var racers sync.WaitGroup
		for i, fn := range causes {
			delay := 2 * time.Millisecond
			switch round % 5 {
			case i:
				delay = 0
			case 4:
				delay = 100 * time.Millisecond
			}
			racers.Add(1)
			go func() {
				defer racers.Done()
				time.Sleep(delay)
				fn()
			}()
		}
		for i, ch := range probers {
			r := awaitProbe(t, "a prober", ch)
			switch {
			case r.err == nil:
				if r.m == nil || r.m.From != 0 || r.m.Tag != 1 || r.m.Total != 2500 {
					t.Fatalf("round %d prober %d: found %+v", round, i, r.m)
				}
				wins["found"]++
				if i >= 2 { // a claim: the message is this prober's to receive
					if mr, err := b.MRecv(r.m, Contig{}, make([]byte, 2500), 2500); err == nil {
						_ = mr.Wait() // Close or the peer's death may still fail it
					}
				}
			case r.m != nil:
				t.Fatalf("round %d prober %d: both a message and %v", round, i, r.err)
			case errors.Is(r.err, ErrWorkerClosed):
				wins["closed"]++
			case errors.Is(r.err, ErrProcFailed):
				wins["peer failed"]++
			case errors.Is(r.err, errAborted):
				wins["aborted"]++
			case errors.Is(r.err, ErrTimeout):
				wins["timeout"]++
			default:
				t.Fatalf("round %d prober %d: unexpected outcome %v", round, i, r.err)
			}
		}
		racers.Wait()
		if d := b.QueueDepths().Posted; d != 0 {
			t.Fatalf("round %d: %d probes still posted after every prober returned", round, d)
		}
		a.Close()
		b.Close()
		poolDrained(t, f)
	}
	t.Logf("outcomes over %d rounds: %v", rounds, wins)
	for _, k := range []string{"found", "closed", "peer failed", "aborted", "timeout"} {
		if wins[k] == 0 {
			t.Errorf("%q never won: that path was not raced", k)
		}
	}
}

// A FIN names a rendezvous send and an ack a reliable eager one. Both wait
// in one table, so an answer of the wrong kind must not take the send its id
// names: a stray FIN used to stop an eager message's retransmission for
// good, and its request never completed.
func TestAnswerOfWrongKindIgnored(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{})
	raw := f.NIC(0)
	w := NewWorker(f.NIC(1), reliableCfg())
	defer func() {
		w.Close()
		raw.Close()
		poolDrained(t, f)
	}()
	eager, err := w.Send(0, 1, Contig{}, pattern(64, 1), 64, 0, ProtoEager)
	if err != nil {
		t.Fatal(err)
	}
	rndv, err := w.Send(0, 2, Contig{}, pattern(64, 2), 64, 0, ProtoRndv)
	if err != nil {
		t.Fatal(err)
	}
	if d := w.QueueDepths(); d.PendingSends != 1 || d.Rexmit != 2 {
		t.Fatalf("depths = %+v, want 1 rendezvous send among 2 unanswered", d)
	}
	answer := func(kind fabric.Kind, id uint64) {
		t.Helper()
		if err := raw.Send(1, fabric.Header{Kind: kind, MsgID: id}); err != nil {
			t.Fatal(err)
		}
	}
	answer(kindFIN, eager.msgID)
	answer(kindEagerAck, rndv.msgID)
	// The inbox is in order: the right answers are handled after the wrong
	// ones.
	answer(kindEagerAck, eager.msgID)
	answer(kindFIN, rndv.msgID)
	for what, r := range map[string]*Request{"eager": eager, "rendezvous": rndv} {
		if err := r.WaitTimeout(5 * time.Second); err != nil {
			t.Errorf("%s send after a wrong answer and then the right one: %v", what, err)
		}
	}
	if d := w.QueueDepths(); d.PendingSends != 0 || d.Rexmit != 0 {
		t.Errorf("depths at the end = %+v", d)
	}
}

// A message claimed by Mprobe stays where duplicate suppression looks: a
// retransmitted RTS for a claimed rendezvous message is a duplicate, not a
// second message.
func TestMprobeClaimedRndvDuplicateRTS(t *testing.T) {
	f := fabric.NewInproc(2, fabric.Config{})
	raw := f.NIC(0)
	b := NewWorker(f.NIC(1), reliableCfg())
	defer func() {
		b.Close()
		raw.Close()
		poolDrained(t, f)
	}()
	rts := fabric.Header{Kind: kindRTS, Tag: 4, MsgID: 1, Total: 1 << 20, Aux1: 77}
	if err := raw.Send(1, rts); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Mprobe(0, 4, exactMask, true); err != nil {
		t.Fatal(err)
	}
	if err := raw.Send(1, rts); err != nil {
		t.Fatal(err)
	}
	// In order behind the duplicate, so once this one is visible the
	// duplicate has been handled.
	if err := raw.Send(1, fabric.Header{Kind: kindEager, Tag: 5, MsgID: 2, Total: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Probe(0, 5, exactMask, true); err != nil {
		t.Fatal(err)
	}
	if m, err := b.Probe(0, 4, exactMask, false); m != nil || err != nil {
		t.Fatalf("a retransmitted RTS of a claimed message was queued as a new one: (%+v, %v)", m, err)
	}
	if n := b.Stats().DupRTS.Load(); n != 1 {
		t.Errorf("DupRTS = %d, want 1", n)
	}
}
