package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/derive"
	"mpicd/internal/fabric"
	"mpicd/internal/serial"
	"mpicd/internal/ucp"
	"mpicd/internal/workloads"
	"mpicd/mpi"
)

// Per-layer metrics come from the traced run, which does four things:
//
//  1. an untraced pass over the workload's items (the reference latency,
//     allocation and protocol counters);
//  2. the same pass over a second world whose NICs are decorated (spans and
//     boundary counters; the latency difference is the tracing overhead);
//  3. the ladder: one payload size round-tripped at each rung of the stack,
//     raw fabric -> ucp -> core -> mpi, a layer's self cost being the
//     difference between adjacent rungs;
//  4. isolated kernels: the workload's own derived types through
//     Plan.Pack/Unpack/AppendRegions, its objects through serial, with no
//     communication at all.

// Budget shares of the traced run.
const (
	sharePlain  = 0.25
	shareTraced = 0.35
	shareLadder = 0.20
	shareMicro  = 0.10
)

// ladderRung is one rung's measurement.
type ladderRung struct {
	Rung  string `json:"rung"`
	Bytes int    `json:"payload_bytes"`
	// OneWayNS is half the 10th-percentile round trip (see lowDecile).
	OneWayNS float64 `json:"one_way_ns"`
	// SelfNS is this rung minus the one below: the layer's own cost.
	SelfNS      float64 `json:"self_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SelfAllocs  float64 `json:"self_allocs_per_op"`
	// CopiedPerOp is bytes the fabric copied (staged + pulled) per one-way
	// message; computed for the raw rung, counted for the others.
	CopiedPerOp float64 `json:"copied_bytes_per_op"`
	Samples     int     `json:"samples"`
}

// ---------------------------------------------------------------------------
// extra worlds a traced run builds by hand

// auxWorld builds further NICs and stacks next to a launched world, using
// the launched communicator to agree on addresses. Launched worlds ignore
// core.Options.WrapNIC, so the decorated stack is assembled the way
// launch's Connect assembles the plain one: provider NIC -> decorator ->
// reliable worker -> communicator.
type auxWorld struct {
	plain     *core.Comm
	transport string
	dir       string
}

type handStack struct {
	worker *ucp.Worker
	comm   *core.Comm
	close  func()
}

// launchedUCP mirrors what launch's Connect sets for a 2-rank single-host
// job: acked eager, a retransmission budget sized for oversubscription.
func launchedUCP(ranks int) ucp.Config {
	return ucp.Config{Reliable: true, RanksPerNode: ranks, RexmitMax: time.Second, RexmitRetries: 20}
}

// nic builds this rank's provider NIC for a fresh fabric named tag.
func (a *auxWorld) nic(tag string) (fabric.NIC, error) {
	rank, size := a.plain.Rank(), a.plain.Size()
	switch a.transport {
	case transportSHM:
		dir := filepath.Join(a.dir, tag)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		nic, err := fabric.NewSHM(rank, size, dir, fabric.Config{})
		if err != nil {
			return nil, err
		}
		// Both sockets must be bound before either side dials.
		return nic, a.plain.Barrier()
	case transportTCP:
		t, err := fabric.ListenTCP(rank, size, "127.0.0.1:0", fabric.Config{})
		if err != nil {
			return nil, err
		}
		const slot = 64
		mine, all := make([]byte, slot), make([]byte, slot*size)
		copy(mine, t.Addr())
		if err := a.plain.Allgather(mine, slot, core.TypeBytes, all); err != nil {
			t.Close()
			return nil, err
		}
		addrs := make([]string, size)
		for i := range addrs {
			b := all[i*slot : (i+1)*slot]
			for len(b) > 0 && b[len(b)-1] == 0 {
				b = b[:len(b)-1]
			}
			addrs[i] = string(b)
		}
		if err := t.Join(addrs); err != nil {
			t.Close()
			return nil, err
		}
		return t, nil
	}
	return nil, fmt.Errorf("no hand-built fabric for transport %q", a.transport)
}

// stack builds NIC -> wrap -> worker -> communicator for this rank.
func (a *auxWorld) stack(tag string, wrap func(fabric.NIC) fabric.NIC) (*handStack, error) {
	nic, err := a.nic(tag)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		nic = wrap(nic)
	}
	w := ucp.NewWorker(nic, launchedUCP(a.plain.Size()))
	return &handStack{worker: w, comm: core.NewComm(w), close: w.Close}, nil
}

// ---------------------------------------------------------------------------
// the traced run

func tracedRun(d *driver, def *workloadDef, budget time.Duration, raw *rawResult) error {
	p := d.p
	L := map[string]float64{}
	raw.Layers = L
	share := func(s float64) time.Duration { return time.Duration(s * float64(budget)) }

	// Pass 1: untraced, on the plain world.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := d.measure(share(sharePlain), tracedTrials); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	plain := cellResults(d)
	var msgs int64
	for i := range d.stats {
		msgs += d.messages(i)
	}
	if msgs > 0 {
		L["proc.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(msgs)
	}
	L["proc.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	var p99 []float64
	for _, c := range plain {
		p99 = append(p99, c.P99)
	}
	L["tail.lat_us_p99"] = geomeanF(p99)
	L["fabric.fast_rtt_share"] = d.fastShare(100 * time.Microsecond)
	L["core.auto_vs_best_min"] = autoVsBest(p.items, plain)
	latPlain := geomean(plain, "lat_us_p50")

	// Pass 2: the same items over the decorated world.
	if err := d.use(1); err != nil {
		return err
	}
	d.stats = make([]itemStats, len(p.items))
	for i := range p.items {
		if err := d.verify(i, true); err != nil {
			return err
		}
	}
	if err := d.measure(share(shareTraced), tracedTrials); err != nil {
		return err
	}
	for i, it := range p.items {
		var bytes int64
		if it.Cell != nil {
			bytes = it.Cell.Bytes
		}
		p.hooks.setTotals(i, d.messages(i), bytes)
	}
	raw.Cells = cellResults(d)
	raw.Spans = p.hooks.takeSpans()
	if latPlain > 0 {
		L["bench.trace_overhead_pct"] = (geomean(raw.Cells, "lat_us_p50")/latPlain - 1) * 100
	}
	for _, c := range raw.Cells {
		L["bench.samples"] += float64(c.Samples)
	}
	if err := d.use(0); err != nil {
		return err
	}

	// The ladder and the isolated kernels.
	if err := d.tell(ctlMsg{Verb: ctlAux, Item: auxLadder, N: int32(def.LadderBytes), Dur: int64(share(shareLadder))}); err != nil {
		return err
	}
	rungs, extra, err := ladder(p.world.aux, 0, def.LadderBytes, share(shareLadder))
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	raw.Ladder = rungs
	for k, v := range extra {
		L[k] = v
	}
	isolated(p, share(shareMicro), L)
	L["proc.rss_peak_mb"] = rssPeakMB()
	return nil
}

// messages is how many payload messages item i's ops moved.
func (d *driver) messages(i int) int64 {
	n := d.stats[i].ops
	if d.p.items[i].Kind == opLat {
		n *= 2 // one each way
	}
	return n
}

// fastShare is the share of ping-pong round trips faster than limit.
func (d *driver) fastShare(limit time.Duration) float64 {
	var fast, all int64
	for i, it := range d.p.items {
		if it.Kind != opLat {
			continue
		}
		for _, tr := range d.stats[i].trials {
			for _, ns := range tr {
				all++
				if ns < int64(limit) {
					fast++
				}
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(fast) / float64(all)
}

// autoVsBest is ROADMAP item 3's gate: over the workload's DDTBench
// kernels, the least ratio of the ddt method's bandwidth to the best custom
// method's. 0 when the workload times no kernel both ways.
func autoVsBest(items []item, cells []cellResult) float64 {
	auto, best := map[string]float64{}, map[string]float64{}
	for i, it := range items {
		if it.Cell == nil || it.Cell.Kernel == "" || it.Kind != opBw {
			continue
		}
		k, v := it.Cell.Kernel, cells[i].Value
		if it.Cell.Custom {
			best[k] = math.Max(best[k], v)
		} else {
			auto[k] = v
		}
	}
	least := 0.0
	for k, a := range auto {
		if b := best[k]; b > 0 && (least == 0 || a/b < least) {
			least = a / b
		}
	}
	return least
}

// foldReports turns the boundary counters of all ranks and the protocol
// counters of the plain workers into the in-situ per-layer metrics.
func foldReports(d *driver, raw *rawResult, reports []followerReport) {
	p, L := d.p, raw.Layers
	var all, custom cellTrace
	for i := range raw.Cells {
		ct := raw.Cells[i].Trace
		if ct == nil {
			continue
		}
		for _, r := range reports {
			if i < len(r.Cells) {
				ct.add(&r.Cells[i])
			}
		}
		ct.finish()
		all.add(ct)
		if c := p.items[i].Cell; c != nil && c.Custom {
			custom.add(ct)
		}
	}
	custom.finish()
	per := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	L["fabric.send_ns_per_op"] = per(all.SendNS, all.Sends)
	L["fabric.get_ns_per_mb"] = per(all.GetNS, all.GetBytes) * 1e6
	L["fabric.recv_wait_ns_per_op"] = per(all.RecvWaitNS, all.Recvs)
	L["fabric.sends_per_op"] = per(all.Sends, all.Ops)
	L["fabric.gets_per_op"] = per(all.Gets, all.Ops)
	L["fabric.staged_bytes_per_payload_byte"] = per(all.SendBytes, all.PayloadBytes)
	L["fabric.pulled_bytes_per_payload_byte"] = per(all.GetBytes, all.PayloadBytes)
	L["fabric.errors_per_kop"] = per(all.Errors, all.Ops) * 1e3
	L["core.cb_pack_ns_per_mb"] = per(all.PackNS, all.PackBytes) * 1e6
	L["core.cb_unpack_ns_per_mb"] = per(all.UnpackNS, all.UnpackBytes) * 1e6
	L["core.cb_calls_per_op"] = per(all.PackCalls+all.UnpackCalls, all.Ops)
	L["core.regions_per_op"] = per(all.Regions, all.RegionSrcs)
	L["core.packed_share"] = custom.PackedShare

	// Protocol mix, from the plain workers' cumulative counters.
	st := p.world.plain.Worker().StatsSnapshot()
	for _, r := range reports {
		st.EagerSends += r.UCP.EagerSends
		st.RndvSends += r.UCP.RndvSends
		st.SelfSends += r.UCP.SelfSends
		st.EagerFragments += r.UCP.EagerFragments
		st.UnexpectedHits += r.UCP.UnexpectedHits
		st.PostedHits += r.UCP.PostedHits
		st.SequentialPulls += r.UCP.SequentialPulls
		st.StripedPulls += r.UCP.StripedPulls
		st.PullStripeSegs += r.UCP.PullStripeSegs
		st.AcksSent += r.UCP.AcksSent
		st.Retransmits += r.UCP.Retransmits
	}
	sent := st.MessagesInitiated()
	L["ucp.eager_share"] = per(st.EagerSends, sent)
	L["ucp.rndv_share"] = per(st.RndvSends, sent)
	L["ucp.frags_per_op"] = per(st.EagerFragments, sent)
	L["ucp.unexpected_share"] = per(st.UnexpectedHits, st.MessagesMatched())
	L["ucp.striped_pull_share"] = per(st.StripedPulls, st.StripedPulls+st.SequentialPulls)
	L["ucp.stripe_segs_per_pull"] = per(st.PullStripeSegs, st.StripedPulls)
	L["ucp.acks_per_op"] = per(st.AcksSent, sent)
	L["ucp.retransmits_per_kop"] = per(st.Retransmits, sent) * 1e3
}

// ---------------------------------------------------------------------------
// the ladder

const auxLadder = 1

// Packet kinds of the raw rung; no worker listens on those NICs.
const (
	rawEager fabric.Kind = 0x20 + iota
	rawRTS
	rawFIN
	rawCount
	rawKey
)

// rawRndvMin is where the raw rung switches from one eager packet to
// RTS + Get + FIN, the way ucp switches protocols (RndvThresh).
const rawRndvMin = ucp.DefaultRndvThresh

const ladderGetBytes = 4 << 20

// ladderSide is what one rank needs for the ladder: a raw NIC pair and a
// hand-built stack whose NIC counts the bytes it copies.
type ladderSide struct {
	rank  int
	raw   fabric.NIC
	stack *handStack
	hooks *traceHooks
	close func()
}

// openLadder builds both fabrics. In-process (aux nil) it returns both
// sides; launched, only this rank's.
func openLadder(aux *auxWorld, rank int) ([]*ladderSide, float64, error) {
	if aux != nil {
		s := &ladderSide{rank: rank, hooks: newTraceHooks([]item{{}})}
		raw, err := aux.nic("r")
		if err != nil {
			return nil, 0, err
		}
		s.raw = raw
		g1 := runtime.NumGoroutine()
		if s.stack, err = aux.stack("l", func(n fabric.NIC) fabric.NIC { return &traceNIC{NIC: n, h: s.hooks} }); err != nil {
			raw.Close()
			return nil, 0, err
		}
		s.close = func() { s.stack.close(); raw.Close() }
		return []*ladderSide{s}, float64(runtime.NumGoroutine() - g1), nil
	}
	rawFab := fabric.NewInproc(2, fabric.Config{})
	g1 := runtime.NumGoroutine()
	fab := fabric.NewInproc(2, fabric.Config{})
	hooks := newTraceHooks([]item{{}})
	sides := make([]*ladderSide, 2)
	for r := range sides {
		nic := &traceNIC{NIC: fab.NIC(r), h: hooks}
		w := ucp.NewWorker(nic, ucp.Config{})
		sides[r] = &ladderSide{rank: r, raw: rawFab.NIC(r), hooks: hooks,
			stack: &handStack{worker: w, comm: core.NewComm(w), close: w.Close}}
	}
	perRank := float64(runtime.NumGoroutine()-g1) / 2
	closeAll := func() {
		for _, s := range sides {
			s.stack.close()
		}
		rawFab.Close()
	}
	sides[0].close, sides[1].close = closeAll, func() {}
	return sides, perRank, nil
}

// rawOneWay moves n bytes from this rank to peer the way ucp would: one
// eager packet, or RTS + Get + FIN above the rendezvous threshold.
func rawSend(nic fabric.NIC, peer int, buf []byte) error {
	if len(buf) < rawRndvMin {
		return nic.Send(peer, fabric.Header{Kind: rawEager, Total: int64(len(buf))}, buf)
	}
	key := nic.Register(fabric.Bytes(buf))
	defer nic.Deregister(key)
	if err := nic.Send(peer, fabric.Header{Kind: rawRTS, Total: int64(len(buf)), Aux1: int64(key)}); err != nil {
		return err
	}
	pkt, ok := nic.Recv()
	if !ok {
		return fabric.ErrClosed
	}
	pkt.Release()
	return nil
}

func rawRecv(nic fabric.NIC, peer int, buf []byte) (fabric.Header, error) {
	pkt, ok := nic.Recv()
	if !ok {
		return fabric.Header{}, fabric.ErrClosed
	}
	hdr := pkt.Hdr
	if hdr.Kind == rawEager {
		copy(buf, pkt.Payload)
	}
	pkt.Release()
	if hdr.Kind == rawRTS {
		if err := nic.Get(peer, uint64(hdr.Aux1), 0, fabric.Bytes(buf), 0, hdr.Total); err != nil {
			return hdr, err
		}
		return hdr, nic.Send(peer, fabric.Header{Kind: rawFIN})
	}
	return hdr, nil
}

// rung is one level's ping-pong, as seen by one rank. count tells the peer
// how many round trips follow.
type rung struct {
	name  string
	count func(n int) (int, error) // rank 0 sends n, rank 1 receives it
	ping  func() error             // rank 0: send, then receive
	pong  func() error             // rank 1: receive, then send
}

func (s *ladderSide) rungs(payload int) []rung {
	peer := 1 - s.rank
	sbuf, rbuf := make([]byte, payload), make([]byte, payload)
	fillRandom(sbuf, 7)
	var cnt [8]byte
	w, c := s.stack.worker, s.stack.comm
	const utag = ucp.Tag(0xFFFF) << 48 // outside every communicator's context
	ucpSend := func(b []byte) error {
		r, err := w.Send(peer, utag, ucp.Contig{}, b, int64(len(b)), 0, ucp.ProtoAuto)
		if err != nil {
			return err
		}
		return r.Wait()
	}
	ucpRecv := func(b []byte) error {
		r, err := w.Recv(peer, utag, ^ucp.Tag(0), ucp.Contig{}, b, int64(len(b)))
		if err != nil {
			return err
		}
		return r.Wait()
	}
	commCount := func(n int) (int, error) {
		if s.rank == 0 {
			binary.LittleEndian.PutUint64(cnt[:], uint64(n))
			return n, c.Send(cnt[:], 8, core.TypeBytes, peer, tagCtl)
		}
		_, err := c.Recv(cnt[:], 8, core.TypeBytes, peer, tagCtl)
		return int(binary.LittleEndian.Uint64(cnt[:])), err
	}
	return []rung{
		{
			name: "fabric.NIC",
			count: func(n int) (int, error) {
				if s.rank == 0 {
					return n, s.raw.Send(peer, fabric.Header{Kind: rawCount, Aux0: int64(n)})
				}
				pkt, ok := s.raw.Recv()
				if !ok {
					return 0, fabric.ErrClosed
				}
				defer pkt.Release()
				return int(pkt.Hdr.Aux0), nil
			},
			ping: func() error {
				if err := rawSend(s.raw, peer, sbuf); err != nil {
					return err
				}
				_, err := rawRecv(s.raw, peer, rbuf)
				return err
			},
			pong: func() error {
				if _, err := rawRecv(s.raw, peer, rbuf); err != nil {
					return err
				}
				return rawSend(s.raw, peer, sbuf)
			},
		},
		{
			name: "ucp.Worker", count: commCount,
			ping: func() error {
				if err := ucpSend(sbuf); err != nil {
					return err
				}
				return ucpRecv(rbuf)
			},
			pong: func() error {
				if err := ucpRecv(rbuf); err != nil {
					return err
				}
				return ucpSend(sbuf)
			},
		},
		{
			name: "core.Comm", count: commCount,
			ping: func() error {
				if err := c.Send(sbuf, int64(payload), core.TypeBytes, peer, tagData); err != nil {
					return err
				}
				_, err := c.Recv(rbuf, int64(payload), core.TypeBytes, peer, tagData)
				return err
			},
			pong: func() error {
				if _, err := c.Recv(rbuf, int64(payload), core.TypeBytes, peer, tagData); err != nil {
					return err
				}
				return c.Send(sbuf, int64(payload), core.TypeBytes, peer, tagData)
			},
		},
		{
			name: "mpi.SendSlice", count: commCount,
			ping: func() error {
				if err := mpi.SendSlice(c, sbuf, peer, tagData); err != nil {
					return err
				}
				_, err := mpi.RecvSlice(c, rbuf, peer, tagData)
				return err
			},
			pong: func() error {
				if _, err := mpi.RecvSlice(c, rbuf, peer, tagData); err != nil {
					return err
				}
				return mpi.SendSlice(c, sbuf, peer, tagData)
			},
		},
	}
}

// ladderRounds is how many times the rungs are visited, interleaved.
const ladderRounds = 3

// lowDecile is the 10th percentile of the samples. The ladder compares
// software paths, so a rung's cost is its unobstructed round trip: back to
// back, SHM round trips are either 10 us or 1.1 ms depending on whether the
// poll loops were caught asleep, and a median lands on one side or the other
// rung by rung, which would be charged to a layer as "self cost".
func lowDecile(v []int64) float64 { return quantileInt64(v, 0.1) }

// climb runs one rank's side of the ladder. Rank 0 returns the rungs.
func (s *ladderSide) climb(payload int, budget time.Duration) ([]ladderRung, map[string]float64, error) {
	rs := s.rungs(payload)
	out := make([]ladderRung, len(rs))
	samples := make([][]int64, len(rs))
	var allocs, copied, ops [4]float64
	per := budget / time.Duration(ladderRounds*len(rs)+1)
	for round := 0; round < ladderRounds; round++ {
		for i, r := range rs {
			if s.rank == 1 {
				for {
					n, err := r.count(0)
					if err != nil {
						return nil, nil, err
					}
					if n == 0 {
						break
					}
					for k := 0; k < n; k++ {
						if err := r.pong(); err != nil {
							return nil, nil, fmt.Errorf("%s: %w", r.name, err)
						}
					}
				}
				continue
			}
			// Rank 0: batches of doubling size until the rung's share of
			// the budget is spent; a zero count releases the peer.
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c0 := s.hooks.cellTrace(0)
			start := time.Now()
			for n := 8; ; n *= 2 {
				if _, err := r.count(n); err != nil {
					return nil, nil, err
				}
				for k := 0; k < n; k++ {
					t0 := time.Now()
					if err := r.ping(); err != nil {
						return nil, nil, fmt.Errorf("%s: %w", r.name, err)
					}
					samples[i] = append(samples[i], int64(time.Since(t0)))
				}
				ops[i] += float64(n)
				if time.Since(start) >= per || n >= 1<<14 {
					break
				}
			}
			if _, err := r.count(0); err != nil {
				return nil, nil, err
			}
			runtime.ReadMemStats(&m1)
			c1 := s.hooks.cellTrace(0)
			allocs[i] += float64(m1.Mallocs - m0.Mallocs)
			copied[i] += float64(c1.SendBytes + c1.GetBytes - c0.SendBytes - c0.GetBytes)
		}
	}
	extra := map[string]float64{}
	gbps, err := s.rawGet(per)
	if err != nil {
		return nil, nil, err
	}
	if s.rank == 1 {
		return nil, nil, nil
	}
	for i, r := range rs {
		out[i] = ladderRung{Rung: r.name, Bytes: payload, OneWayNS: lowDecile(samples[i]) / 2, Samples: len(samples[i])}
		if ops[i] > 0 {
			// A round trip is two messages.
			out[i].AllocsPerOp = allocs[i] / ops[i] / 2
			out[i].CopiedPerOp = copied[i] / ops[i] / 2
		}
		if i == 0 {
			out[i].SelfNS, out[i].SelfAllocs, out[i].CopiedPerOp = out[i].OneWayNS, out[i].AllocsPerOp, float64(payload)
			continue
		}
		out[i].SelfNS = out[i].OneWayNS - out[i-1].OneWayNS
		out[i].SelfAllocs = out[i].AllocsPerOp - out[i-1].AllocsPerOp
	}
	extra["fabric.raw_rtt_ns"] = out[0].OneWayNS * 2
	extra["fabric.raw_get_gbps"] = gbps
	extra["ucp.self_ns_per_op"], extra["ucp.allocs_per_op"] = out[1].SelfNS, out[1].SelfAllocs
	extra["core.self_ns_per_op"], extra["core.allocs_per_op"] = out[2].SelfNS, out[2].SelfAllocs
	extra["mpi.self_ns_per_op"], extra["mpi.allocs_per_op"] = out[3].SelfNS, out[3].SelfAllocs
	return out, extra, nil
}

// rawGet times Gets of a 4 MiB registered source over the raw NICs: rank 1
// exports, rank 0 pulls. The bare rendezvous data path of the provider.
func (s *ladderSide) rawGet(budget time.Duration) (float64, error) {
	peer := 1 - s.rank
	if s.rank == 1 {
		src := make([]byte, ladderGetBytes)
		fillRandom(src, 11)
		key := s.raw.Register(fabric.Bytes(src))
		defer s.raw.Deregister(key)
		if err := s.raw.Send(peer, fabric.Header{Kind: rawKey, Aux1: int64(key)}); err != nil {
			return 0, err
		}
		pkt, ok := s.raw.Recv() // rank 0 is done pulling
		if !ok {
			return 0, fabric.ErrClosed
		}
		pkt.Release()
		return 0, nil
	}
	pkt, ok := s.raw.Recv()
	if !ok {
		return 0, fabric.ErrClosed
	}
	key := uint64(pkt.Hdr.Aux1)
	pkt.Release()
	dst := make([]byte, ladderGetBytes)
	var ns []int64
	for start := time.Now(); len(ns) < 4 || (time.Since(start) < budget && len(ns) < 256); {
		t0 := time.Now()
		if err := s.raw.Get(peer, key, 0, fabric.Bytes(dst), 0, ladderGetBytes); err != nil {
			return 0, err
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	if err := s.raw.Send(peer, fabric.Header{Kind: rawFIN}); err != nil {
		return 0, err
	}
	return ladderGetBytes / medianInt64(ns), nil // bytes per ns = GB/s
}

// ladder runs the ladder for this rank. In-process, rank 0's call also runs
// rank 1's side on a goroutine; launched, rank 1 calls it from follow().
func ladder(aux *auxWorld, rank, payload int, budget time.Duration) ([]ladderRung, map[string]float64, error) {
	sides, goroutines, err := openLadder(aux, rank)
	if err != nil {
		return nil, nil, err
	}
	defer sides[0].close()
	peerErr := make(chan error, 1)
	if len(sides) == 2 {
		go func() {
			_, _, err := sides[1].climb(payload, budget)
			peerErr <- err
		}()
	} else {
		peerErr <- nil
	}
	rungs, extra, err := sides[0].climb(payload, budget)
	if err != nil {
		return nil, nil, err
	}
	if err := <-peerErr; err != nil {
		return nil, nil, err
	}
	if extra != nil {
		extra["proc.goroutines_per_rank"] = goroutines
	}
	return rungs, extra, nil
}

// ---------------------------------------------------------------------------
// isolated kernels: no communication

// timeLoop calls f until budget is spent (at least 3 times) and returns the
// median duration of a call in ns.
func timeLoop(budget time.Duration, f func()) float64 {
	var ns []int64
	for start := time.Now(); len(ns) < 3 || (time.Since(start) < budget && len(ns) < 2000); {
		t0 := time.Now()
		f()
		ns = append(ns, int64(time.Since(t0)))
	}
	return medianInt64(ns)
}

func isolated(p *rankProg, budget time.Duration, L map[string]float64) {
	type ddtCase struct {
		dt    *core.Datatype
		count int64
		img   []byte
	}
	type objCase struct{ v any }
	var ddts []ddtCase
	var customs []*dtEndpoint
	var objs []objCase
	seenDDT, seenObj := map[uint64]bool{}, map[string]bool{}
	for i, it := range p.items {
		switch ep := p.eps[i].(type) {
		case *dtEndpoint:
			if len(ep.out) == 0 || len(ep.in) == 0 {
				continue // a one-way cell: this rank holds only half of it
			}
			if t := ep.dt.DDT(); t != nil {
				img := ep.out[0].([]byte)
				key := t.Plan().Hash() ^ uint64(ep.count)
				if !seenDDT[key] {
					seenDDT[key] = true
					ddts = append(ddts, ddtCase{ep.dt, ep.count, img})
				}
			} else if it.Cell.Custom {
				customs = append(customs, ep)
			}
		case *pickleEndpoint:
			if len(ep.out) > 0 && !seenObj[it.Cell.Shape+sizeName(it.Cell.Bytes)] {
				seenObj[it.Cell.Shape+sizeName(it.Cell.Bytes)] = true
				objs = append(objs, objCase{ep.out[0]})
			}
		case pickleAsync:
			if len(ep.out) > 0 && !seenObj[it.Cell.Shape+sizeName(it.Cell.Bytes)] {
				seenObj[it.Cell.Shape+sizeName(it.Cell.Bytes)] = true
				objs = append(objs, objCase{ep.out[0]})
			}
		}
	}
	cases := len(ddts)*4 + len(customs)*2 + len(objs)*2 + 1
	each := budget / time.Duration(cases)
	// Read before the cold-compile loop below empties the cache and its
	// counters: hits and misses of this world's own commits.
	if hits, misses, _ := ddt.PlanCacheStats(); hits+misses > 0 {
		L["ddt.plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// ddt: the workload's own derived types through their plans.
	var pack, unpack, perRegion, commit []float64
	for _, c := range ddts {
		plan := c.dt.DDT().Plan()
		size := plan.PackedSize(c.count)
		buf := make([]byte, size)
		scratch := make([]byte, len(c.img))
		pack = append(pack, float64(size)/timeLoop(each, func() { _, _ = plan.Pack(c.img, c.count, buf) }))
		unpack = append(unpack, float64(size)/timeLoop(each, func() { _ = plan.Unpack(scratch, c.count, buf) }))
		var regs [][]byte
		ns := timeLoop(each, func() { regs, _ = plan.AppendRegions(regs[:0], c.img, c.count) })
		if len(regs) > 0 {
			perRegion = append(perRegion, ns/float64(len(regs)))
		}
		// Cold compile: an equal type rebuilt from its description, with
		// the plan cache emptied first.
		desc := c.dt.DDT().Marshal()
		commit = append(commit, timeLoop(each, func() {
			ddt.ResetPlanCache()
			if t, err := ddt.Unmarshal(desc); err == nil {
				t.Plan()
			}
		})/1e3)
	}
	L["ddt.pack_gbps"] = geomeanF(pack)
	L["ddt.unpack_gbps"] = geomeanF(unpack)
	L["ddt.regions_ns_per_region"] = geomeanF(perRegion)
	L["ddt.commit_us"] = geomeanF(commit)
	L["derive.typeof_ns"] = timeLoop(each, func() {
		for k := 0; k < 1000; k++ {
			_, _ = derive.TypeOf[workloads.StructSimpleGo]()
		}
	}) / 1000

	// core: what building the region list of a custom type costs, on the
	// send image and on the (filled) receive image.
	var regSend, regRecv []float64
	for _, ep := range customs {
		regSend = append(regSend, timeLoop(each, func() { _, _ = core.PackedSize(ep.out[0], ep.count, ep.dt) }))
		regRecv = append(regRecv, timeLoop(each, func() { _, _ = core.PackedSize(ep.in[0], ep.count, ep.dt) }))
	}
	L["core.cb_regions_send_ns_per_op"] = geomeanF(regSend)
	L["core.cb_regions_recv_ns_per_op"] = geomeanF(regRecv)

	// serial: the workload's own objects through encode and decode.
	var enc, dec, allocs, oobShare, msgs []float64
	for _, o := range objs {
		data, err := serial.Dumps(o.v)
		if err != nil {
			continue
		}
		mb := float64(len(data)) / 1e6
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n := 0
		enc = append(enc, timeLoop(each, func() { _, _ = serial.Dumps(o.v); n++ })/mb)
		dec = append(dec, timeLoop(each, func() { _, _ = serial.Loads(data); n++ })/mb)
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		header, oob, err := serial.DumpsOOB(o.v, serial.DefaultThreshold)
		if err != nil {
			continue
		}
		var out int
		for _, b := range oob {
			out += len(b)
		}
		oobShare = append(oobShare, float64(out)/float64(out+len(header)))
		// basic and oob-cdt are one message; oob is header + one per buffer.
		msgs = append(msgs, float64(1+(1+len(oob))+1)/3)
	}
	L["serial.encode_ns_per_mb"] = geomeanF(enc)
	L["serial.decode_ns_per_mb"] = geomeanF(dec)
	L["serial.allocs_per_op"] = meanF(allocs)
	L["serial.oob_share"] = meanF(oobShare)
	L["serial.msgs_per_object"] = meanF(msgs)
}

func meanF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ---------------------------------------------------------------------------
// follower side of the traced run

// use switches this rank between the plain world (0) and the decorated
// world (1); rank 0 tells the others first.
func (d *driver) use(which int) error {
	if err := d.tell(ctlMsg{Verb: ctlUse, Item: int32(which)}); err != nil {
		return err
	}
	d.p.use(which)
	return nil
}

func (p *rankProg) use(which int) {
	if which == 0 {
		p.c, p.eps, p.hooks = p.world.plain, p.plainEps, nil
		return
	}
	if p.tracedEps == nil {
		p.plainEps = p.eps
		p.tracedEps = make([]endpoint, len(p.eps))
		for i, ep := range p.eps {
			if ep != nil {
				p.tracedEps[i] = traceEndpoint(ep, p.world.hooks, p.rank)
			}
		}
	}
	p.c, p.eps, p.hooks = p.world.traced, p.tracedEps, p.world.hooks
}

// aux runs a cooperative routine named by a control message.
func (p *rankProg) aux(m ctlMsg) error {
	switch m.Item {
	case auxLadder:
		if p.rank != 1 || p.world.aux == nil {
			return nil // in-process: rank 0 runs both sides itself
		}
		_, _, err := ladder(p.world.aux, p.rank, int(m.N), time.Duration(m.Dur))
		return err
	}
	return fmt.Errorf("unknown aux routine %d", m.Item)
}

// report is what a follower sends back when released.
func (p *rankProg) report() ([]byte, error) {
	rep := followerReport{
		Attempted: p.attempted, Failed: p.failed, FirstFail: p.firstFail,
		UCP: p.world.plain.Worker().StatsSnapshot(),
	}
	if h := p.world.hooks; h != nil && p.world.ownHooks {
		for i := range p.items {
			rep.Cells = append(rep.Cells, *h.cellTrace(i))
		}
	}
	return json.Marshal(rep)
}
