package ucp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// obsPair brings up a 2-rank inproc fabric with both workers sharing one
// Observer (per-rank metric prefixes keep them apart in the registry).
func obsPair(t *testing.T, o *obs.Observer, cfg Config) (*Worker, *Worker) {
	t.Helper()
	return pair(t, fabric.Config{Obs: o}, cfg)
}

func TestObsByteCountersByProtocol(t *testing.T) {
	o := obs.New(0)
	a, b := obsPair(t, o, Config{RndvThresh: 16 * 1024})

	xfer := func(n int, proto Proto) {
		t.Helper()
		data := pattern(n, 1)
		out := make([]byte, n)
		rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, int64(n))
		sr, err := a.Send(1, 1, Contig{}, data, int64(n), 0, proto)
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(sr, rr); err != nil {
			t.Fatal(err)
		}
	}
	xfer(1000, ProtoEager)
	xfer(1000, ProtoEager)
	xfer(64*1024, ProtoRndv)

	s := a.StatsSnapshot()
	if s.EagerBytes != 2000 {
		t.Fatalf("eager bytes = %d, want 2000", s.EagerBytes)
	}
	if s.RndvBytes != 64*1024 {
		t.Fatalf("rndv bytes = %d, want %d", s.RndvBytes, 64*1024)
	}
	if s.MessagesInitiated() != 3 {
		t.Fatalf("initiated = %d, want 3", s.MessagesInitiated())
	}
	if got := b.StatsSnapshot().MessagesMatched(); got != 3 {
		t.Fatalf("matched = %d, want 3", got)
	}
	// The registry gauges mirror the worker counters.
	snap := o.Registry.Snapshot()
	if g := snap.Gauges["ucp.r0.eager_bytes"]; g != 2000 {
		t.Fatalf("registry eager_bytes gauge = %d, want 2000", g)
	}
	if g := snap.Gauges["ucp.r0.rndv_sends"]; g != 1 {
		t.Fatalf("registry rndv_sends gauge = %d, want 1", g)
	}
}

func TestObsSelfSendBytes(t *testing.T) {
	o := obs.New(0)
	f := fabric.NewInproc(1, fabric.Config{Obs: o})
	w := NewWorker(f.NIC(0), Config{})
	defer w.Close()
	out := make([]byte, 512)
	rr, _ := w.Recv(0, 1, exactMask, Contig{}, out, -1)
	sr, _ := w.Send(0, 1, Contig{}, pattern(512, 2), -1, 0, ProtoAuto)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if s := w.StatsSnapshot(); s.SelfBytes != 512 || s.SelfSends != 1 {
		t.Fatalf("self bytes/sends = %d/%d, want 512/1", s.SelfBytes, s.SelfSends)
	}
}

func TestObsHistogramsPopulated(t *testing.T) {
	o := obs.New(0)
	a, b := obsPair(t, o, Config{RndvThresh: 8 * 1024})
	for _, n := range []int{100, 2000, 32 * 1024} {
		data := pattern(n, 4)
		out := make([]byte, n)
		rr, _ := b.Recv(0, 2, exactMask, Contig{}, out, int64(n))
		sr, _ := a.Send(1, 2, Contig{}, data, int64(n), 0, ProtoAuto)
		if err := WaitAll(sr, rr); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Registry.Snapshot()
	// Sender side: completion latency and eager pack time; receiver side:
	// delivery time and one Get round trip from the rendezvous transfer.
	for _, name := range []string{
		"ucp.r0.msg_complete_ns",
		"ucp.r0.pack_ns",
		"ucp.r1.msg_complete_ns",
		"ucp.r1.unpack_ns",
		"ucp.r1.get_rtt_ns",
		"ucp.r1.msg_size_bytes",
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("histogram %s missing or empty: %+v", name, h)
		}
	}
	if h := snap.Histograms["ucp.r1.msg_size_bytes"]; h.P99 < 32*1024 {
		t.Fatalf("size histogram p99 = %d, want >= 32768", h.P99)
	}
}

func TestObsTraceLifecycle(t *testing.T) {
	o := obs.New(256)
	a, b := obsPair(t, o, Config{})
	data := pattern(300, 6)
	out := make([]byte, 300)
	rr, _ := b.Recv(0, 8, exactMask, Contig{}, out, 300)
	sr, _ := a.Send(1, 8, Contig{}, data, 300, 0, ProtoEager)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("data mismatch")
	}
	kinds := map[obs.EventKind]int{}
	for _, e := range o.Trace.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvSend, obs.EvPost, obs.EvMatch, obs.EvComplete} {
		if kinds[k] == 0 {
			t.Fatalf("trace missing %v events; got %v", k, kinds)
		}
	}
	// The dump is valid JSON with both sections.
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Metrics json.RawMessage `json:"metrics"`
		Trace   []obs.Event     `json:"trace"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(dump.Trace) == 0 || len(dump.Metrics) == 0 {
		t.Fatal("dump missing metrics or trace section")
	}
}

// Snapshot consistency under concurrency: 8 goroutine pairs ping-pong
// while samplers concurrently take StatsSnapshots, registry snapshots and
// JSON dumps. Run under -race this pins down that the obs layer adds no
// data races; afterwards the protocol-class invariants must hold exactly.
func TestObsSnapshotConsistencyConcurrent(t *testing.T) {
	o := obs.New(1024)
	a, b := obsPair(t, o, Config{RndvThresh: 4 * 1024})
	const pairs = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, pairs*2)
	stop := make(chan struct{})

	// Samplers hammer every read path while traffic flows.
	var swg sync.WaitGroup
	for i := 0; i < 2; i++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snapA, snapB := a.StatsSnapshot(), b.StatsSnapshot()
				if snapA.MessagesInitiated() < 0 || snapB.MessagesMatched() < 0 {
					panic("negative counter")
				}
				_ = o.Registry.Snapshot()
				var buf bytes.Buffer
				_ = o.WriteJSON(&buf)
			}
		}()
	}

	for g := 0; g < pairs; g++ {
		wg.Add(2)
		tag := Tag(200 + g)
		size := 512 + g*1024 // straddles the rendezvous threshold
		go func(tag Tag, size int) {
			defer wg.Done()
			buf := pattern(size, byte(tag))
			for i := 0; i < iters; i++ {
				sr, err := a.Send(1, tag, Contig{}, buf, int64(size), 0, ProtoAuto)
				if err != nil {
					errs <- err
					return
				}
				if err := sr.Wait(); err != nil {
					errs <- fmt.Errorf("send tag %d iter %d: %w", tag, i, err)
					return
				}
			}
		}(tag, size)
		go func(tag Tag, size int) {
			defer wg.Done()
			out := make([]byte, size)
			for i := 0; i < iters; i++ {
				rr, err := b.Recv(0, tag, exactMask, Contig{}, out, int64(size))
				if err != nil {
					errs <- err
					return
				}
				if err := rr.Wait(); err != nil {
					errs <- fmt.Errorf("recv tag %d iter %d: %w", tag, i, err)
					return
				}
			}
		}(tag, size)
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = pairs * iters
	sa, sb := a.StatsSnapshot(), b.StatsSnapshot()
	if sa.MessagesInitiated() != total {
		t.Fatalf("initiated = %d, want %d", sa.MessagesInitiated(), total)
	}
	if sb.MessagesMatched() != total {
		t.Fatalf("matched = %d, want %d", sb.MessagesMatched(), total)
	}
	if sa.EagerSends == 0 || sa.RndvSends == 0 {
		t.Fatalf("expected both protocols exercised: %+v", sa)
	}
	// All traffic drained: no queue residue on either side.
	for _, s := range []StatsSnapshot{sa, sb} {
		d := s.Depths
		if d.Posted != 0 || d.Unexpected != 0 || d.ActiveRecvs != 0 || d.PendingSends != 0 || d.PendingPulls != 0 {
			t.Fatalf("rank %d queue residue after drain: %+v", s.Rank, d)
		}
	}
}

// Stats accounting stays exact under the PR 2 fault matrix: the lossy
// adversary forces retransmits and dup drops, but the protocol-class
// invariants and delivered bytes are unchanged.
func TestObsStatsConsistentUnderFaults(t *testing.T) {
	o := obs.New(512)
	fcfg := reliableFab()
	fcfg.Obs = o
	a, b := faultWorkers(t, 42, fcfg, reliableCfg(), lossyPlan)
	const msgs = 6
	var delivered int64
	for i := 0; i < msgs; i++ {
		size := 1 + i*2500
		data := pattern(size, byte(i))
		out := make([]byte, size)
		rr, _ := b.Recv(0, Tag(i), exactMask, Contig{}, out, int64(size))
		sr, err := a.Send(1, Tag(i), Contig{}, data, int64(size), 0, ProtoEager)
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(sr, rr); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("transfer %d corrupted", i)
		}
		delivered += int64(size)
	}
	sa, sb := a.StatsSnapshot(), b.StatsSnapshot()
	if sa.MessagesInitiated() != msgs {
		t.Fatalf("initiated = %d, want %d", sa.MessagesInitiated(), msgs)
	}
	if sb.MessagesMatched() != msgs {
		t.Fatalf("matched = %d, want %d", sb.MessagesMatched(), msgs)
	}
	if sa.EagerBytes != delivered {
		t.Fatalf("eager bytes = %d, want %d (retransmits must not double-count)", sa.EagerBytes, delivered)
	}
	// The adversary really fired, and the trace recorded the retransmits.
	if sa.Retransmits == 0 {
		t.Fatal("lossy plan produced no retransmits")
	}
	var rexmitEvents int
	for _, e := range o.Trace.Events() {
		if e.Kind == obs.EvRexmit {
			rexmitEvents++
		}
	}
	if rexmitEvents == 0 && o.Trace.Dropped() == 0 {
		t.Fatal("no EvRexmit events in an undropped trace")
	}
}

// Disabled mode: a worker without an observer still keeps counters and
// serves snapshots, and records nothing anywhere else.
func TestObsDisabledStillCounts(t *testing.T) {
	a, b := pair(t, fabric.Config{}, Config{})
	data := pattern(256, 7)
	out := make([]byte, 256)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, 256)
	sr, _ := a.Send(1, 1, Contig{}, data, 256, 0, ProtoEager)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
	if s := a.StatsSnapshot(); s.EagerSends != 1 || s.EagerBytes != 256 {
		t.Fatalf("disabled-mode snapshot = %+v", s)
	}
}

// The janitor's deadline sweep doubles as the probe wake-up; make sure
// enabling obs does not perturb it (a send under ReqTimeout completes
// well before the deadline).
func TestObsWithReqTimeout(t *testing.T) {
	o := obs.New(64)
	a, b := obsPair(t, o, Config{ReqTimeout: time.Second})
	data := pattern(128, 8)
	out := make([]byte, 128)
	rr, _ := b.Recv(0, 1, exactMask, Contig{}, out, 128)
	sr, _ := a.Send(1, 1, Contig{}, data, 128, 0, ProtoEager)
	if err := WaitAll(sr, rr); err != nil {
		t.Fatal(err)
	}
}
