package fabric

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mpicd/internal/obs"
)

// This file implements a deterministic fault-injection provider: a NIC
// wrapper that perturbs traffic according to a seeded FaultPlan. It is
// the adversary the transport layer's recovery machinery (checksums,
// retransmission, duplicate suppression, Get retries) is tested against.

// FaultAction identifies one kind of injected fault.
type FaultAction int

// Injectable faults. Drop..Truncate apply to outbound packets (Send and
// SendFrom); FailGet applies to Get; LinkDown silently discards every
// subsequent send to the peer (and fails Gets from it) for a bounded
// number of operations.
const (
	// Drop discards the packet.
	Drop FaultAction = iota
	// Duplicate delivers the packet twice.
	Duplicate
	// Reorder holds the packet and delivers it after the next send (the
	// hold flushes on the next send to any peer and on Close).
	Reorder
	// Delay sleeps Rule.Delay before delivering.
	Delay
	// Corrupt flips one payload byte (chosen by the seeded RNG).
	Corrupt
	// Truncate cuts Rule.Bytes (default 1) bytes off the payload tail.
	Truncate
	// FailGet fails a Get with Rule.Err (default ErrLinkDown).
	FailGet
	// LinkDown drops the firing send and the next Rule.Down sends to the
	// peer, and fails Gets from it; Down < 0 keeps the link down forever.
	LinkDown
	// Kill permanently deadens this NIC's rank for every peer and every
	// operation: the firing send and all subsequent sends are discarded,
	// and Gets fail with ErrRankDead. When the plan shares a KillSwitch,
	// the death is global — every other FaultNIC on the same switch also
	// drops traffic to the dead rank and fails Gets from it, which is what
	// distinguishes process death from the per-peer LinkDown rule.
	Kill
)

func (a FaultAction) String() string {
	switch a {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Reorder:
		return "reorder"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case FailGet:
		return "fail-get"
	case LinkDown:
		return "link-down"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("FaultAction(%d)", int(a))
}

// KillSwitch is the shared death registry of a fault-injected world: a
// bitmask of permanently dead ranks consulted by every FaultNIC bound to
// it. Sharing one switch across all ranks' plans is what makes a Kill
// behave like process death — no peer can reach the dead rank in either
// direction. Ranks >= 64 cannot be tracked (fault worlds are small).
type KillSwitch struct {
	mask atomic.Uint64
}

// NewKillSwitch returns an empty switch.
func NewKillSwitch() *KillSwitch { return &KillSwitch{} }

// Kill marks rank permanently dead. Idempotent.
func (k *KillSwitch) Kill(rank int) {
	if rank < 0 || rank >= 64 {
		return
	}
	bit := uint64(1) << uint(rank)
	for {
		m := k.mask.Load()
		if m&bit != 0 || k.mask.CompareAndSwap(m, m|bit) {
			return
		}
	}
}

// Dead reports whether rank has been killed.
func (k *KillSwitch) Dead(rank int) bool {
	if rank < 0 || rank >= 64 {
		return false
	}
	return k.mask.Load()&(uint64(1)<<uint(rank)) != 0
}

// Mask returns the dead-rank bitmask (bit i = rank i dead).
func (k *KillSwitch) Mask() uint64 { return k.mask.Load() }

// FaultRule is one per-link fault in a plan. Rules are evaluated in plan
// order against every eligible operation; the first rule that fires wins
// for that operation.
type FaultRule struct {
	// Peer restricts the rule to traffic to/from one rank; -1 matches any.
	Peer int
	// Kinds restricts packet rules to specific header kinds (e.g. only
	// control messages); empty matches every kind. Ignored by FailGet.
	Kinds []Kind
	// Action selects the fault.
	Action FaultAction
	// Prob is the per-operation firing probability in [0, 1]. Zero never
	// fires (use 1 for always).
	Prob float64
	// Count caps how many times the rule fires; 0 means unlimited.
	Count int
	// Delay is the injected latency for Delay rules.
	Delay time.Duration
	// Bytes is how much Truncate cuts (default 1).
	Bytes int
	// Down is the LinkDown duration in sends (negative = forever).
	Down int
	// Err overrides the error FailGet injects (default ErrLinkDown).
	Err error
}

// FaultPlan is a seeded set of fault rules. The same plan and seed
// produce the same fault decisions for the same operation sequence.
type FaultPlan struct {
	Seed  int64
	Rules []FaultRule
	// Kills, when non-nil, is the shared death registry: Kill rules (and
	// FaultNIC.Kill calls) mark ranks dead on it, and every FaultNIC bound
	// to the same switch enforces the death in both directions. Nil gives
	// the NIC a private switch, which can only express "this rank went
	// mute" — its peers will still deliver traffic *to* it.
	Kills *KillSwitch
}

// FaultStats counts fired faults; all fields are cumulative.
type FaultStats struct {
	Dropped    atomic.Int64 // packets discarded by Drop
	Duplicated atomic.Int64 // packets delivered twice
	Reordered  atomic.Int64 // packets held for late delivery
	Delayed    atomic.Int64 // packets delayed
	Corrupted  atomic.Int64 // packets with a flipped payload byte
	Truncated  atomic.Int64 // packets with a shortened payload
	GetsFailed atomic.Int64 // Gets failed by FailGet or a down link
	DownDrops  atomic.Int64 // packets discarded because the link was down
	LinkDowns  atomic.Int64 // times a LinkDown rule fired
	Kills      atomic.Int64 // times a Kill rule (or Kill call) fired here
	KillDrops  atomic.Int64 // packets discarded because a rank was dead
}

// FaultNIC wraps a NIC and applies a FaultPlan to its traffic. It embeds
// the inner NIC, so everything it does not perturb — Recv, registration,
// membership — reaches the provider untouched; Send, SendFrom and Get run
// the plan. All fault decisions come from one seeded RNG, so a fixed
// plan is reproducible for a fixed operation order.
type FaultNIC struct {
	NIC
	rules []FaultRule
	kills *KillSwitch

	mu    sync.Mutex
	rng   *rand.Rand
	fired []int       // per-rule fire counts
	down  map[int]int // peer -> remaining down-sends (negative = forever)
	held  *heldSend
	stats FaultStats
}

type heldSend struct {
	to      int
	hdr     Header
	payload []byte
}

// WrapFault wraps nic with a fault plan. The rule list is copied. When the
// NIC's Config carries an observer, the fired-fault counters are exposed in
// it as gauges under fault.r<rank>.*, plus faults_total summing every
// injected fault, so a stats dump shows exactly what adversity a run
// survived.
func WrapFault(nic NIC, plan FaultPlan) *FaultNIC {
	ks := plan.Kills
	if ks == nil {
		ks = NewKillSwitch()
	}
	f := &FaultNIC{
		NIC:   nic,
		rules: append([]FaultRule(nil), plan.Rules...),
		kills: ks,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		fired: make([]int, len(plan.Rules)),
		down:  make(map[int]int),
	}
	if reg := nic.Config().registry(); reg != nil {
		f.registerObs(reg)
	}
	return f
}

// Kill marks this NIC's own rank permanently dead on its kill switch
// (shared or private), exactly as if a Kill rule had fired: every
// subsequent send from it is discarded and Gets involving it fail with
// ErrRankDead. Tests use it to kill a rank at a precise point in the
// protocol rather than after a rule-counted number of operations.
func (f *FaultNIC) Kill() {
	f.kills.Kill(f.NIC.Rank())
	f.stats.Kills.Add(1)
	f.mu.Lock()
	f.held = nil // a dead rank's in-flight (held) packet dies with it
	f.mu.Unlock()
}

// Kills exposes the NIC's kill switch so tests and harnesses can share
// it across ranks or kill ranks directly.
func (f *FaultNIC) Kills() *KillSwitch { return f.kills }

// Stats exposes the fired-fault counters.
func (f *FaultNIC) Stats() *FaultStats { return &f.stats }

func (f *FaultNIC) registerObs(reg *obs.Registry) {
	p := func(name string) string { return fmt.Sprintf("fault.r%d.%s", f.NIC.Rank(), name) }
	s := &f.stats
	counters := []struct {
		name string
		fn   obs.Gauge
	}{
		{"dropped", s.Dropped.Load},
		{"duplicated", s.Duplicated.Load},
		{"reordered", s.Reordered.Load},
		{"delayed", s.Delayed.Load},
		{"corrupted", s.Corrupted.Load},
		{"truncated", s.Truncated.Load},
		{"gets_failed", s.GetsFailed.Load},
		{"down_drops", s.DownDrops.Load},
		{"link_downs", s.LinkDowns.Load},
		{"kills_fired", s.Kills.Load},
		{"kill_drops", s.KillDrops.Load},
	}
	for _, c := range counters {
		reg.GaugeFunc(p(c.name), c.fn)
	}
	reg.GaugeFunc(p("faults_total"), func() int64 {
		return s.Dropped.Load() + s.Duplicated.Load() + s.Reordered.Load() +
			s.Delayed.Load() + s.Corrupted.Load() + s.Truncated.Load() +
			s.GetsFailed.Load() + s.DownDrops.Load() + s.LinkDowns.Load() +
			s.Kills.Load() + s.KillDrops.Load()
	})
}

// RuleFired reports how many times rule i has fired.
func (f *FaultNIC) RuleFired(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired[i]
}

// AddRule appends a rule to the live plan and returns its index. Unlike
// the rules fixed at WrapFault time, injected rules arrive while traffic
// is flowing — this is how a chaos scheduler turns adversity on and off
// mid-run. The rule is evaluated after all earlier rules, with the same
// first-match-wins semantics.
func (f *FaultNIC) AddRule(r FaultRule) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
	f.fired = append(f.fired, 0)
	return len(f.rules) - 1
}

// DisableRule retires rule i: it can never fire again. Counts already
// fired are kept. Out-of-range indices are ignored.
func (f *FaultNIC) DisableRule(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i >= 0 && i < len(f.rules) {
		f.rules[i].Prob = 0
		f.rules[i].Count = -1 // fired < -1 is never true: rule is ineligible
	}
}

// LinkUp restores a link a LinkDown rule (or burst) took down, as if
// the cable were plugged back in. No-op if the link was up.
func (f *FaultNIC) LinkUp(peer int) {
	f.mu.Lock()
	delete(f.down, peer)
	f.mu.Unlock()
}

// Link is the inner NIC's, except that a plan that can drop, duplicate,
// reorder, corrupt, truncate or take a link down (or kill a rank) makes it
// lossy: each breaks "once, in order, intact". It reads the rules as they
// are now: a rule added later does not change what a worker built on the
// NIC already read.
func (f *FaultNIC) Link() Link {
	l := f.NIC.Link()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		switch r.Action {
		case Drop, Duplicate, Reorder, Corrupt, Truncate, LinkDown, Kill:
			if r.Prob > 0 {
				l.Lossless = false
			}
		}
	}
	return l
}

// Close flushes any held (reordered) packet and closes the inner NIC.
func (f *FaultNIC) Close() error {
	f.mu.Lock()
	held := f.held
	f.held = nil
	f.mu.Unlock()
	if held != nil {
		_ = f.NIC.Send(held.to, held.hdr, held.payload)
	}
	return f.NIC.Close()
}

// Send implements NIC: the payload is flattened, run through the plan,
// and forwarded (or dropped/duplicated/held/corrupted) accordingly.
func (f *FaultNIC) Send(to int, hdr Header, payload ...[]byte) error {
	total := 0
	for _, p := range payload {
		total += len(p)
	}
	flat := make([]byte, 0, total)
	for _, p := range payload {
		flat = append(flat, p...)
	}
	return f.apply(to, hdr, flat)
}

// SendFrom implements NIC by staging the source bytes locally (so the
// plan can corrupt or truncate them) and forwarding through Send logic.
// Partial packs keep SendFrom semantics: the packed byte count is
// returned even when the packet is then dropped, exactly as a lossy wire
// would behave.
func (f *FaultNIC) SendFrom(to int, hdr Header, src Source, off, n int64) (int64, error) {
	if n > MaxFragSize {
		return 0, fmt.Errorf("fabric: fragment of %d bytes exceeds max %d", n, MaxFragSize)
	}
	buf := make([]byte, n)
	got, err := src.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if got == 0 && n > 0 {
		return 0, ErrShortTransfer
	}
	if err := f.apply(to, hdr, buf[:got]); err != nil {
		return 0, err
	}
	return int64(got), nil
}

// Get implements NIC. FailGet rules and down links inject errors; a
// successful call passes through to the inner NIC untouched (in-process
// Gets are memory moves — detected corruption is modelled as a failed
// Get, the way a checksum-verifying byte-stream provider surfaces it).
func (f *FaultNIC) Get(from int, key uint64, off int64, sink Sink, sinkOff, n int64) error {
	// A Get touching a dead rank's memory (or issued by a dead rank) fails
	// permanently: the registration died with the process.
	if f.kills.Dead(from) || f.kills.Dead(f.NIC.Rank()) {
		f.stats.GetsFailed.Add(1)
		return fmt.Errorf("%w: rank %d killed by fault plan", ErrRankDead, from)
	}
	f.mu.Lock()
	if d, ok := f.down[from]; ok && d != 0 {
		f.mu.Unlock()
		f.stats.GetsFailed.Add(1)
		return fmt.Errorf("%w: fault plan holds link to rank %d down", ErrLinkDown, from)
	}
	for i := range f.rules {
		r := &f.rules[i]
		if r.Action != FailGet || !f.ruleEligibleLocked(i, from) {
			continue
		}
		if f.rng.Float64() >= r.Prob {
			continue
		}
		f.fired[i]++
		f.mu.Unlock()
		f.stats.GetsFailed.Add(1)
		if r.Err != nil {
			return r.Err
		}
		return fmt.Errorf("%w: injected get failure", ErrLinkDown)
	}
	f.mu.Unlock()
	return f.NIC.Get(from, key, off, sink, sinkOff, n)
}

// ruleEligibleLocked reports whether rule i may still fire for peer.
func (f *FaultNIC) ruleEligibleLocked(i, peer int) bool {
	r := &f.rules[i]
	if r.Peer >= 0 && r.Peer != peer {
		return false
	}
	return r.Count == 0 || f.fired[i] < r.Count
}

func kindMatches(kinds []Kind, k Kind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if want == k {
			return true
		}
	}
	return false
}

// apply runs the plan against one outbound packet. f owns payload.
func (f *FaultNIC) apply(to int, hdr Header, payload []byte) error {
	// A dead endpoint on either side swallows the packet: a dead sender
	// emits nothing, and nothing is deliverable to a dead receiver. No
	// error — the sender of a real network learns of the death only
	// through silence, which the worker above measures.
	if f.kills.Dead(f.NIC.Rank()) || f.kills.Dead(to) {
		f.stats.KillDrops.Add(1)
		if f.kills.Dead(f.NIC.Rank()) {
			f.mu.Lock()
			f.held = nil
			f.mu.Unlock()
		}
		return nil
	}
	f.mu.Lock()
	// A held (reordered) packet flushes on the next send: after the new
	// packet when both target the same peer (the swap), before it
	// otherwise (so holds cannot starve).
	held := f.held
	f.held = nil
	if held != nil && held.to != to {
		f.mu.Unlock()
		if err := f.NIC.Send(held.to, held.hdr, held.payload); err != nil {
			return err
		}
		f.mu.Lock()
		held = nil
	}
	flushHeld := func(err error) error {
		if held == nil {
			return err
		}
		if serr := f.NIC.Send(held.to, held.hdr, held.payload); err == nil {
			err = serr
		}
		return err
	}

	if d, ok := f.down[to]; ok && d != 0 {
		if d > 0 {
			f.down[to] = d - 1
		}
		f.mu.Unlock()
		f.stats.DownDrops.Add(1)
		return flushHeld(nil)
	}

	for i := range f.rules {
		r := &f.rules[i]
		if r.Action == FailGet || !f.ruleEligibleLocked(i, to) {
			continue
		}
		if !kindMatches(r.Kinds, hdr.Kind) {
			continue
		}
		if f.rng.Float64() >= r.Prob {
			continue
		}
		f.fired[i]++
		switch r.Action {
		case Drop:
			f.mu.Unlock()
			f.stats.Dropped.Add(1)
			return flushHeld(nil)
		case Duplicate:
			f.mu.Unlock()
			f.stats.Duplicated.Add(1)
			if err := f.NIC.Send(to, hdr, payload); err != nil {
				return flushHeld(err)
			}
			return flushHeld(f.NIC.Send(to, hdr, payload))
		case Reorder:
			if held == nil {
				f.held = &heldSend{to: to, hdr: hdr, payload: payload}
				f.mu.Unlock()
				f.stats.Reordered.Add(1)
				return nil
			}
			// Already flushing a same-peer hold: deliver new-then-held,
			// which is itself a reorder of the held packet.
			f.mu.Unlock()
			f.stats.Reordered.Add(1)
			if err := f.NIC.Send(to, hdr, payload); err != nil {
				return flushHeld(err)
			}
			return flushHeld(nil)
		case Delay:
			f.mu.Unlock()
			f.stats.Delayed.Add(1)
			time.Sleep(r.Delay)
			if err := f.NIC.Send(to, hdr, payload); err != nil {
				return flushHeld(err)
			}
			return flushHeld(nil)
		case Corrupt:
			if len(payload) > 0 {
				payload[f.rng.Intn(len(payload))] ^= 0xFF
				f.stats.Corrupted.Add(1)
			}
			f.mu.Unlock()
			if err := f.NIC.Send(to, hdr, payload); err != nil {
				return flushHeld(err)
			}
			return flushHeld(nil)
		case Truncate:
			cut := r.Bytes
			if cut <= 0 {
				cut = 1
			}
			if cut > len(payload) {
				cut = len(payload)
			}
			payload = payload[:len(payload)-cut]
			f.stats.Truncated.Add(1)
			f.mu.Unlock()
			if err := f.NIC.Send(to, hdr, payload); err != nil {
				return flushHeld(err)
			}
			return flushHeld(nil)
		case LinkDown:
			f.down[to] = r.Down
			if r.Down == 0 {
				f.down[to] = 1
			}
			f.mu.Unlock()
			f.stats.LinkDowns.Add(1)
			f.stats.DownDrops.Add(1)
			return flushHeld(nil)
		case Kill:
			// The rank running this NIC dies: the firing packet and any
			// held packet vanish with it.
			f.held = nil
			f.mu.Unlock()
			f.kills.Kill(f.NIC.Rank())
			f.stats.Kills.Add(1)
			f.stats.KillDrops.Add(1)
			return nil
		}
	}
	f.mu.Unlock()
	if err := f.NIC.Send(to, hdr, payload); err != nil {
		return flushHeld(err)
	}
	return flushHeld(nil)
}
