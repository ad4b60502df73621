package fabric

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// This file implements the chaos side of the soak harness: a seeded
// schedule of fault events (corruption bursts, link flaps, rank kills)
// spread across a wall-clock budget, and a runner that injects them
// into a live fault-wrapped world while traffic is flowing. The same
// plan and seed always produce the same schedule, so a soak failure
// reproduces from its logged seed alone.

// ChaosEventKind identifies one kind of scheduled chaos event.
type ChaosEventKind int

const (
	// ChaosCorruptBurst injects a bounded burst of payload corruption on
	// one rank's outbound traffic (any peer). The transport's checksums
	// and retransmission must absorb it.
	ChaosCorruptBurst ChaosEventKind = iota
	// ChaosLinkFlap takes one directed link down for a bounded number of
	// sends, then the runner restores it — a cable pull, not a death.
	ChaosLinkFlap
	// ChaosKill permanently kills a rank via its shared KillSwitch. The
	// application layer is expected to detect it (silence), revoke,
	// agree, shrink, and resume.
	ChaosKill
)

func (k ChaosEventKind) String() string {
	switch k {
	case ChaosCorruptBurst:
		return "corrupt-burst"
	case ChaosLinkFlap:
		return "link-flap"
	case ChaosKill:
		return "kill"
	}
	return fmt.Sprintf("ChaosEventKind(%d)", int(k))
}

// ChaosEvent is one scheduled fault.
type ChaosEvent struct {
	At    time.Duration  // offset from runner start
	Kind  ChaosEventKind // what happens
	Rank  int            // rank whose NIC the event applies to
	Peer  int            // directed peer for link flaps (-1 = any, corrupt bursts)
	Count int            // burst size: corrupted packets or down-sends
	Prob  float64        // per-packet firing probability for injected rules
	Hold  time.Duration  // link flaps: how long before the runner restores the link
}

// ChaosPlan parameterises schedule generation. Zero values get sane
// defaults from BuildChaosSchedule; only Ranks and Budget are required.
type ChaosPlan struct {
	Seed   int64         // RNG seed; the whole schedule derives from it
	Budget time.Duration // events are spread across [5%, 95%] of this window
	Ranks  int           // world size

	// Protect lists ranks that are never killed (typically rank 0: the
	// root of rooted collectives and the soak's reporting rank). They
	// still receive corruption and link flaps.
	Protect []int

	// Kills is the number of rank-kill events (distinct victims). It is
	// clamped so at least two unprotected ranks survive — a world shrunk
	// below two ranks has nothing left to prove.
	Kills int

	CorruptBursts int // number of corruption-burst events (default Ranks)
	LinkFlaps     int // number of link-flap events (default Ranks)
}

// BuildChaosSchedule expands a plan into a deterministic, time-sorted
// event list. Same plan => same schedule, byte for byte.
func BuildChaosSchedule(p ChaosPlan) []ChaosEvent {
	if p.Ranks <= 0 || p.Budget <= 0 {
		return nil
	}
	if p.CorruptBursts == 0 {
		p.CorruptBursts = p.Ranks
	}
	if p.LinkFlaps == 0 {
		p.LinkFlaps = p.Ranks
	}
	protected := make(map[int]bool, len(p.Protect))
	for _, r := range p.Protect {
		protected[r] = true
	}
	var killable []int
	for r := 0; r < p.Ranks && r < 64; r++ {
		if !protected[r] {
			killable = append(killable, r)
		}
	}
	maxKills := len(killable) - 2 // keep >= 2 survivors among the killable
	if maxKills < 0 {
		maxKills = 0
	}
	kills := p.Kills
	if kills > maxKills {
		kills = maxKills
	}

	rng := rand.New(rand.NewSource(p.Seed))
	// Events land in [5%, 95%] of the budget: nothing fires before the
	// workload has warmed up, and nothing fires so late its recovery
	// cannot be observed before the run ends.
	at := func() time.Duration {
		lo := p.Budget / 20
		span := p.Budget - 2*lo
		return lo + time.Duration(rng.Int63n(int64(span)+1))
	}

	var events []ChaosEvent
	for i := 0; i < p.CorruptBursts; i++ {
		events = append(events, ChaosEvent{
			At:    at(),
			Kind:  ChaosCorruptBurst,
			Rank:  rng.Intn(p.Ranks),
			Peer:  -1,
			Count: 1 + rng.Intn(4),
			Prob:  0.05 + 0.15*rng.Float64(),
		})
	}
	for i := 0; i < p.LinkFlaps; i++ {
		rank := rng.Intn(p.Ranks)
		peer := rng.Intn(p.Ranks)
		if peer == rank {
			peer = (peer + 1) % p.Ranks
		}
		events = append(events, ChaosEvent{
			At:    at(),
			Kind:  ChaosLinkFlap,
			Rank:  rank,
			Peer:  peer,
			Count: -1, // down until the runner restores it
			Hold:  p.Budget/50 + time.Duration(rng.Int63n(int64(p.Budget/50)+1)),
		})
	}
	rng.Shuffle(len(killable), func(i, j int) { killable[i], killable[j] = killable[j], killable[i] })
	for i := 0; i < kills; i++ {
		events = append(events, ChaosEvent{
			At:   at(),
			Kind: ChaosKill,
			Rank: killable[i],
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// ChaosRunner replays a schedule against a fault-wrapped world. Events
// fire from a single goroutine at their scheduled offsets; kills are
// reported through OnKill so the harness can watch recovery happen.
type ChaosRunner struct {
	nics   []*FaultNIC
	events []ChaosEvent

	// OnEvent, when non-nil, observes every event as it is applied
	// (after injection). Called from the runner goroutine.
	OnEvent func(ChaosEvent)
	// OnKill, when non-nil, is called with the victim rank right after a
	// kill is injected.
	OnKill func(rank int)

	mu      sync.Mutex
	applied int
	killed  []int

	stop chan struct{}
	done chan struct{}
	// pending link restorations, waited on before done closes so Stop
	// leaves no timer goroutines behind.
	restores sync.WaitGroup
}

// NewChaosRunner builds a runner over the given NICs (index = rank).
// Events referencing out-of-range ranks are skipped, not an error.
func NewChaosRunner(nics []*FaultNIC, events []ChaosEvent) *ChaosRunner {
	return &ChaosRunner{
		nics:   nics,
		events: events,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the runner goroutine. Call Stop to halt early; the
// runner also finishes on its own once every event has fired.
func (c *ChaosRunner) Start() { go c.run() }

// Stop halts the runner and waits for its goroutine (and any pending
// link restorations) to exit, so leak checks see a clean world.
// Safe to call after the schedule has drained.
func (c *ChaosRunner) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// Applied returns how many events have been injected so far.
func (c *ChaosRunner) Applied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// Killed returns the ranks killed so far, in kill order.
func (c *ChaosRunner) Killed() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.killed...)
}

func (c *ChaosRunner) run() {
	defer close(c.done)
	defer c.restores.Wait()
	start := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for _, ev := range c.events {
		wait := ev.At - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-c.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-c.stop:
				return
			default:
			}
		}
		c.inject(ev)
	}
}

func (c *ChaosRunner) inject(ev ChaosEvent) {
	if ev.Rank < 0 || ev.Rank >= len(c.nics) {
		return
	}
	nic := c.nics[ev.Rank]
	switch ev.Kind {
	case ChaosCorruptBurst:
		nic.AddRule(FaultRule{Peer: ev.Peer, Action: Corrupt, Prob: ev.Prob, Count: ev.Count})
	case ChaosLinkFlap:
		i := nic.AddRule(FaultRule{Peer: ev.Peer, Action: LinkDown, Prob: 1, Count: 1, Down: ev.Count})
		hold := ev.Hold
		if hold <= 0 {
			hold = 50 * time.Millisecond
		}
		c.restores.Add(1)
		go func() {
			defer c.restores.Done()
			t := time.NewTimer(hold)
			defer t.Stop()
			select {
			case <-c.stop:
			case <-t.C:
			}
			nic.DisableRule(i)
			nic.LinkUp(ev.Peer)
		}()
	case ChaosKill:
		if nic.Kills().Dead(ev.Rank) {
			return
		}
		nic.Kill()
		c.mu.Lock()
		c.killed = append(c.killed, ev.Rank)
		c.mu.Unlock()
		if c.OnKill != nil {
			c.OnKill(ev.Rank)
		}
	}
	c.mu.Lock()
	c.applied++
	c.mu.Unlock()
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
}
