package ucp

// Observability glue: when the NIC's fabric.Config.Obs is set, the worker
// registers its protocol counters and queue-depth gauges with the shared
// registry, observes latency/size histograms, and records per-message
// lifecycle events into the trace ring. When it is nil (the default) the
// worker's obs pointer is nil and every instrumentation site reduces to
// one pointer check — the eager path stays allocation-free and its
// latency is pinned by BenchmarkAblationObs.

import (
	"fmt"
	"time"

	"mpicd/internal/obs"
)

// EvSend trace Arg values: the wire path the send took.
const (
	traceProtoEager int64 = iota
	traceProtoRndv
	traceProtoSelf
)

// workerObs holds the worker's resolved observability handles so the hot
// path never does a registry (map) lookup.
type workerObs struct {
	trace *obs.Ring
	rank  int32

	// Histograms (all named ucp.r<rank>.*):
	completeNS *obs.Histogram // msg_complete_ns: request post→complete latency
	packNS     *obs.Histogram // pack_ns: sender-side serialization per eager message
	unpackNS   *obs.Histogram // unpack_ns: receiver-side delivery, match→finish
	getNS      *obs.Histogram // get_rtt_ns: one fabric Get round trip
	sizeBytes  *obs.Histogram // msg_size_bytes: completed message sizes
}

// setupObs resolves the worker's metric handles and registers the
// WorkerStats counters and live queue depths under ucp.r<rank>.*.
func (w *Worker) setupObs(o *obs.Observer) {
	if o == nil || o.Registry == nil {
		return
	}
	rank := w.nic.Rank()
	p := func(name string) string { return fmt.Sprintf("ucp.r%d.%s", rank, name) }
	reg := o.Registry
	w.obs = &workerObs{
		trace:      o.Trace,
		rank:       int32(rank),
		completeNS: reg.Histogram(p("msg_complete_ns")),
		packNS:     reg.Histogram(p("pack_ns")),
		unpackNS:   reg.Histogram(p("unpack_ns")),
		getNS:      reg.Histogram(p("get_rtt_ns")),
		sizeBytes:  reg.Histogram(p("msg_size_bytes")),
	}
	// The cumulative protocol counters live in WorkerStats (they are
	// always counted — atomics are cheap); the registry exposes them, and
	// the live queue depths, as gauges so one snapshot unifies both worlds.
	for _, g := range []struct {
		name string
		fn   obs.Gauge
	}{
		{"eager_sends", w.stats.EagerSends.Load},
		{"rndv_sends", w.stats.RndvSends.Load},
		{"self_sends", w.stats.SelfSends.Load},
		{"eager_fragments", w.stats.EagerFragments.Load},
		{"unexpected_hits", w.stats.UnexpectedHits.Load},
		{"posted_hits", w.stats.PostedHits.Load},
		{"eager_bytes", w.stats.EagerBytes.Load},
		{"rndv_bytes", w.stats.RndvBytes.Load},
		{"self_bytes", w.stats.SelfBytes.Load},
		{"sequential_pulls", w.stats.SequentialPulls.Load},
		{"striped_pulls", w.stats.StripedPulls.Load},
		{"pull_stripe_segs", w.stats.PullStripeSegs.Load},
		{"retransmits", w.stats.Retransmits.Load},
		{"acks_sent", w.stats.AcksSent.Load},
		{"dup_frags", w.stats.DupFrags.Load},
		{"dup_rts", w.stats.DupRTS.Load},
		{"corrupt_drops", w.stats.CorruptDrops.Load},
		{"get_retries", w.stats.GetRetries.Load},
		{"stripe_fallbacks", w.stats.StripeFallbacks.Load},
		{"timeouts", w.stats.Timeouts.Load},
		{"aborts_reaped", w.stats.AbortsReaped.Load},
		{"peer_failures", w.stats.PeerFailures.Load},
		{"posted_depth", func() int64 { return int64(w.QueueDepths().Posted) }},
		{"unexpected_depth", func() int64 { return int64(w.QueueDepths().Unexpected) }},
		{"active_recvs", func() int64 { return int64(w.QueueDepths().ActiveRecvs) }},
		{"pending_sends", func() int64 { return int64(w.QueueDepths().PendingSends) }},
		{"rexmit_depth", func() int64 { return int64(w.QueueDepths().Rexmit) }},
	} {
		reg.GaugeFunc(p(g.name), g.fn)
	}
}

// ev records one lifecycle trace event. A disabled trace (nil obs or nil
// ring) costs two pointer checks and nothing else.
func (w *Worker) ev(kind obs.EventKind, peer int, id uint64, tag Tag, size, arg int64) {
	o := w.obs
	if o == nil || o.trace == nil {
		return
	}
	o.trace.Record(obs.Event{
		Nanos: time.Now().UnixNano(),
		Kind:  kind,
		Rank:  o.rank,
		Peer:  int32(peer),
		MsgID: id,
		Tag:   uint64(tag),
		Size:  size,
		Arg:   arg,
	})
}

// obsNow returns a start timestamp when observability is enabled and the
// zero time otherwise, so disabled mode never calls time.Now.
func (w *Worker) obsNow() time.Time {
	if w.obs == nil {
		return time.Time{}
	}
	return time.Now()
}

// QueueDepthsSnapshot reports the instantaneous matching-engine state.
type QueueDepthsSnapshot struct {
	Posted       int `json:"posted"`        // receives waiting for a message, blocked probes included
	Unexpected   int `json:"unexpected"`    // messages waiting for a receive
	Claimed      int `json:"claimed"`       // mprobe-claimed messages not yet MRecv'd
	ActiveRecvs  int `json:"active_recvs"`  // matched eager receives mid-delivery
	PendingSends int `json:"pending_sends"` // rendezvous sends awaiting FIN
	PendingPulls int `json:"pending_pulls"` // rendezvous receives mid-pull
	Rexmit       int `json:"rexmit"`        // unacknowledged sends the janitor tracks
}

// QueueDepths samples the live queue depths under the worker lock. Claimed
// and Unexpected split one queue, PendingSends and Rexmit count one table
// of sends (by protocol, and all of them when Reliable retransmits them).
func (w *Worker) QueueDepths() QueueDepthsSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	d := QueueDepthsSnapshot{
		Posted:       w.table.lenPosted(),
		Unexpected:   w.table.lenUnexpected(),
		Claimed:      w.table.lenClaimed(),
		ActiveRecvs:  len(w.active),
		PendingPulls: len(w.pulls),
	}
	for _, s := range w.sends {
		if s.send.src != nil {
			d.PendingSends++
		}
	}
	if w.cfg.Reliable {
		d.Rexmit = len(w.sends)
	}
	return d
}

// StatsSnapshot is a plain-value copy of every worker counter plus the
// live queue depths, safe to encode, compare and diff. Protocol-class
// invariants the tests rely on:
//
//	EagerSends + RndvSends + SelfSends == messages initiated
//	UnexpectedHits + PostedHits        == messages matched
type StatsSnapshot struct {
	Rank int `json:"rank"`

	EagerSends     int64 `json:"eager_sends"`
	RndvSends      int64 `json:"rndv_sends"`
	SelfSends      int64 `json:"self_sends"`
	EagerFragments int64 `json:"eager_fragments"`
	UnexpectedHits int64 `json:"unexpected_hits"`
	PostedHits     int64 `json:"posted_hits"`

	EagerBytes int64 `json:"eager_bytes"`
	RndvBytes  int64 `json:"rndv_bytes"`
	SelfBytes  int64 `json:"self_bytes"`

	SequentialPulls int64 `json:"sequential_pulls"`
	StripedPulls    int64 `json:"striped_pulls"`
	PullStripeSegs  int64 `json:"pull_stripe_segs"`

	Retransmits     int64 `json:"retransmits"`
	AcksSent        int64 `json:"acks_sent"`
	DupFrags        int64 `json:"dup_frags"`
	DupRTS          int64 `json:"dup_rts"`
	CorruptDrops    int64 `json:"corrupt_drops"`
	GetRetries      int64 `json:"get_retries"`
	StripeFallbacks int64 `json:"stripe_fallbacks"`
	Timeouts        int64 `json:"timeouts"`
	AbortsReaped    int64 `json:"aborts_reaped"`
	PeerFailures    int64 `json:"peer_failures"`

	Depths QueueDepthsSnapshot `json:"depths"`
}

// StatsSnapshot copies every counter and the live queue depths. It works
// with or without an observer — the protocol counters are always
// maintained.
func (w *Worker) StatsSnapshot() StatsSnapshot {
	s := &w.stats
	return StatsSnapshot{
		Rank:            w.nic.Rank(),
		EagerSends:      s.EagerSends.Load(),
		RndvSends:       s.RndvSends.Load(),
		SelfSends:       s.SelfSends.Load(),
		EagerFragments:  s.EagerFragments.Load(),
		UnexpectedHits:  s.UnexpectedHits.Load(),
		PostedHits:      s.PostedHits.Load(),
		EagerBytes:      s.EagerBytes.Load(),
		RndvBytes:       s.RndvBytes.Load(),
		SelfBytes:       s.SelfBytes.Load(),
		SequentialPulls: s.SequentialPulls.Load(),
		StripedPulls:    s.StripedPulls.Load(),
		PullStripeSegs:  s.PullStripeSegs.Load(),
		Retransmits:     s.Retransmits.Load(),
		AcksSent:        s.AcksSent.Load(),
		DupFrags:        s.DupFrags.Load(),
		DupRTS:          s.DupRTS.Load(),
		CorruptDrops:    s.CorruptDrops.Load(),
		GetRetries:      s.GetRetries.Load(),
		StripeFallbacks: s.StripeFallbacks.Load(),
		Timeouts:        s.Timeouts.Load(),
		AbortsReaped:    s.AbortsReaped.Load(),
		PeerFailures:    s.PeerFailures.Load(),
		Depths:          w.QueueDepths(),
	}
}

// MessagesInitiated sums the per-protocol send counters.
func (s StatsSnapshot) MessagesInitiated() int64 {
	return s.EagerSends + s.RndvSends + s.SelfSends
}

// MessagesMatched sums the two match-path counters.
func (s StatsSnapshot) MessagesMatched() int64 {
	return s.UnexpectedHits + s.PostedHits
}
