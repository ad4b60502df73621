package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/workloads"
)

// The engine is one program run by every rank of a world. Rank 0 is the
// single driver: the loop is closed, so it issues the next op only when the
// previous one completed. The other ranks follow: they wait for a control
// message naming an item and an op count, and play the peer's half of it.
// In-process worlds run the followers as goroutines; launched worlds run
// them as processes. The code is the same.

const (
	tagCtl   = 1
	tagData  = 2
	tagAck   = 3
	tagReady = 4
)

// Control verbs.
const (
	ctlRun    = 1 // N timed ops of item
	ctlVerify = 2 // one verified op of item: clear, move, check (N=1: every slot)
	ctlQuit   = 3 // report to rank 0 and leave
	ctlUse    = 4 // switch to the plain (0) or the decorated (1) world
	ctlAux    = 5 // a cooperative routine of the traced run (see aux)
)

type ctlMsg struct {
	Verb uint8
	Item int32
	N    int32
	Base int32 // first slot of the rotation
	Dur  int64 // opTrain: how long rank 0 lets the loop run, ns
}

const ctlSize = 24

func (m ctlMsg) encode(b []byte) {
	b[0] = m.Verb
	binary.LittleEndian.PutUint32(b[4:], uint32(m.Item))
	binary.LittleEndian.PutUint32(b[8:], uint32(m.N))
	binary.LittleEndian.PutUint32(b[12:], uint32(m.Base))
	binary.LittleEndian.PutUint64(b[16:], uint64(m.Dur))
}

func decodeCtl(b []byte) ctlMsg {
	return ctlMsg{
		Verb: b[0],
		Item: int32(binary.LittleEndian.Uint32(b[4:])),
		N:    int32(binary.LittleEndian.Uint32(b[8:])),
		Base: int32(binary.LittleEndian.Uint32(b[12:])),
		Dur:  int64(binary.LittleEndian.Uint64(b[16:])),
	}
}

// rankProg is one rank's state: its communicator, its endpoints, and its
// tally of ops attempted and failed.
type rankProg struct {
	c     *core.Comm
	rank  int
	items []item
	eps   []endpoint

	ctl [ctlSize]byte
	ack [1]byte

	attempted int64
	failed    int64
	firstFail string

	hooks *traceHooks // nil while the plain world is in use

	// Traced runs keep two worlds and switch between them (see use).
	world     rankWorld
	plainEps  []endpoint
	tracedEps []endpoint
}

// openRank opens every item's endpoint for this rank.
func openRank(c *core.Comm, items []item, seed int64, flipAt string) (*rankProg, error) {
	p := &rankProg{c: c, rank: c.Rank(), items: items}
	env := newCellEnv(p.rank, seed, flipAt)
	p.eps = make([]endpoint, len(items))
	for i, it := range items {
		if it.Cell == nil || p.rank > 1 {
			continue // only ranks 0 and 1 move cells
		}
		twoWay := it.Kind == opLat
		env.sends, env.recvs = p.rank == 0 || twoWay, p.rank == 1 || twoWay
		ep, err := it.Cell.open(env, it.Cell)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", it.Cell.Name, err)
		}
		p.eps[i] = ep
	}
	return p, nil
}

func (p *rankProg) fail(err error) {
	p.failed++
	if p.firstFail == "" {
		p.firstFail = err.Error()
	}
}

// slotOf maps the w-th message of a rotation starting at base to a slot.
func slotOf(it item, base, w int) int { return (base + w) % it.Cell.Slots }

// ---------------------------------------------------------------------------
// the two halves of each op kind

// pingpong: rank 0 sends and waits for the reply; rank 1 mirrors.
func (p *rankProg) pingpong(i int) error {
	ep := p.eps[i]
	if p.rank == 0 {
		if err := ep.Send(p.c, 0, 1, tagData); err != nil {
			return err
		}
		return ep.Recv(p.c, 0, 1, tagData)
	}
	if err := ep.Recv(p.c, 0, 0, tagData); err != nil {
		return err
	}
	return ep.Send(p.c, 0, 0, tagData)
}

// window: rank 0 sends Window messages back to back, rank 1 receives them
// and closes the window with a 1-byte ack, so timing covers delivery.
func (p *rankProg) window(i, base int) error {
	it, ep := p.items[i], p.eps[i]
	for w := 0; w < it.Window; w++ {
		var err error
		if p.rank == 0 {
			err = ep.Send(p.c, slotOf(it, base, w), 1, tagData)
		} else {
			err = ep.Recv(p.c, slotOf(it, base, w), 0, tagData)
		}
		if err != nil {
			return err
		}
	}
	if p.rank == 0 {
		_, err := p.c.Recv(p.ack[:], 1, core.TypeBytes, 1, tagAck)
		return err
	}
	return p.c.Send(p.ack[:], 1, core.TypeBytes, 0, tagAck)
}

// burstRecv is rank 1's half of a pipelined window: half the receives are
// posted before the sender is released, the other half only after the
// first half landed, so part of the burst arrives unexpected.
func (p *rankProg) burstRecv(i, base int) error {
	it := p.items[i]
	ep, ok := p.eps[i].(asyncEndpoint)
	if !ok {
		if err := p.c.Send(p.ack[:], 1, core.TypeBytes, 0, tagReady); err != nil {
			return err
		}
		return p.window(i, base)
	}
	reqs := make([]*core.Request, it.Window)
	post := func(lo, hi int) error {
		for w := lo; w < hi; w++ {
			r, err := ep.Irecv(p.c, slotOf(it, base, w), 0, tagData)
			if err != nil {
				return err
			}
			reqs[w] = r
		}
		return nil
	}
	half := it.Window / 2
	if err := post(0, half); err != nil {
		return err
	}
	if err := p.c.Send(p.ack[:], 1, core.TypeBytes, 0, tagReady); err != nil {
		return err
	}
	if err := core.WaitAll(reqs[:half]...); err != nil {
		return err
	}
	if err := post(half, it.Window); err != nil {
		return err
	}
	if err := core.WaitAll(reqs[half:]...); err != nil {
		return err
	}
	for w := 0; w < it.Window; w++ {
		if err := ep.Landed(slotOf(it, base, w)); err != nil {
			return err
		}
	}
	return p.c.Send(p.ack[:], 1, core.TypeBytes, 0, tagAck)
}

// burstSend is rank 0's half; it returns the time from release to ack.
func (p *rankProg) burstSend(i, base int) (time.Duration, error) {
	it := p.items[i]
	if _, err := p.c.Recv(p.ack[:], 1, core.TypeBytes, 1, tagReady); err != nil {
		return 0, err
	}
	ep, ok := p.eps[i].(asyncEndpoint)
	start := time.Now()
	if !ok {
		err := p.window(i, base)
		return time.Since(start), err
	}
	reqs := make([]*core.Request, it.Window)
	for w := range reqs {
		r, err := ep.Isend(p.c, slotOf(it, base, w), 1, tagData)
		if err != nil {
			return 0, err
		}
		reqs[w] = r
	}
	if err := core.WaitAll(reqs...); err != nil {
		return 0, err
	}
	_, err := p.c.Recv(p.ack[:], 1, core.TypeBytes, 1, tagAck)
	return time.Since(start), err
}

// train runs the training loop until rank 0's timer asks for the collective
// stop. It verifies every halo and every gradient itself and returns the
// steps completed.
func (p *rankProg) train(dur time.Duration) (int64, error) {
	cfg := workloads.TrainingConfig{
		GradCount:    trainGradCount,
		HaloBlocks:   trainHaloBlocks,
		HaloBlockLen: trainHaloBlockLen,
		HaloStride:   trainHaloStride,
	}
	if p.rank == 0 {
		stop := make(chan struct{})
		t := time.AfterFunc(dur, func() { close(stop) })
		defer t.Stop()
		cfg.Stop = stop
	}
	st, err := workloads.RunTrainingLoop(p.c, cfg)
	return st.Steps, err
}

// ---------------------------------------------------------------------------
// verified ops

// verify performs one op of item i with the receive buffers wiped first and
// checked afterwards. It is how every cell is checked on every warm-up op
// (full: every message of a window) and once per timed trial (the window's
// first message only: wiping and comparing 16 MiB would eat the trial). Its
// time is never a sample.
func (p *rankProg) verify(i, base int, full bool) error {
	it, ep := p.items[i], p.eps[i]
	// Every trial starts from a collected heap, as testing.B does: whether
	// a receive-side allocation lands on recycled or on never-touched
	// memory would otherwise depend on the cells that ran before.
	runtime.GC()
	if it.Kind == opTrain {
		// The loop checks its own payloads; a short run is the verified op.
		p.attempted++
		if _, err := p.train(20 * time.Millisecond); err != nil {
			p.fail(err)
		}
		return nil
	}
	if p.rank > 1 {
		return nil
	}
	slots := []int{0}
	if it.Kind == opBw || it.Kind == opRate {
		slots = slots[:0]
		for w := 0; w < it.Window && (full || w == 0); w++ {
			slots = append(slots, slotOf(it, base, w))
		}
	}
	for _, s := range slots {
		ep.Clear(s)
	}
	var err error
	switch it.Kind {
	case opLat:
		err = p.pingpong(i)
	case opBw:
		err = p.window(i, base)
	case opRate:
		if p.rank == 0 {
			_, err = p.burstSend(i, base)
		} else {
			err = p.burstRecv(i, base)
		}
	}
	if err != nil {
		return err
	}
	// Rank 0 receives payload only in a ping-pong.
	if p.rank == 1 || it.Kind == opLat {
		for _, s := range slots {
			p.attempted++
			if cerr := ep.Check(s); cerr != nil {
				p.fail(cerr)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// follower

// follow is the program of every rank but 0.
func (p *rankProg) follow() error {
	for {
		if _, err := p.c.Recv(p.ctl[:], ctlSize, core.TypeBytes, 0, tagCtl); err != nil {
			return err
		}
		m := decodeCtl(p.ctl[:])
		i := int(m.Item)
		switch m.Verb {
		case ctlQuit:
			rep, err := p.report()
			if err != nil {
				return err
			}
			return p.c.Send(rep, -1, core.TypeBytes, 0, tagAck)
		case ctlUse:
			p.use(i)
		case ctlAux:
			if err := p.aux(m); err != nil {
				return err
			}
		case ctlVerify:
			if err := p.verify(i, int(m.Base), m.N == 1); err != nil {
				return err
			}
		case ctlRun:
			if err := p.followRun(i, int(m.N), int(m.Base), time.Duration(m.Dur)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("rank %d: unknown control verb %d", p.rank, m.Verb)
		}
	}
}

func (p *rankProg) followRun(i, n, base int, dur time.Duration) error {
	it := p.items[i]
	if it.Kind == opTrain {
		_, err := p.train(dur)
		return err
	}
	if p.rank > 1 {
		return nil
	}
	p.hooks.setCell(i)
	for k := 0; k < n; k++ {
		var err error
		switch it.Kind {
		case opLat:
			err = p.pingpong(i)
		case opBw:
			err = p.window(i, base+k*it.Window)
		case opRate:
			err = p.burstRecv(i, base+k*it.Window)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// driver

// itemStats is what the driver keeps for one item.
type itemStats struct {
	trials  [][]int64 // per trial: one duration per sample, ns
	trainSt [][2]int64
	ops     int64 // messages (or steps) behind the samples
	perOp   time.Duration
	base    int
}

type driver struct {
	p     *rankProg
	stats []itemStats
	rng   *rand.Rand
}

func newDriver(p *rankProg, seed int64) *driver {
	return &driver{p: p, stats: make([]itemStats, len(p.items)), rng: rand.New(rand.NewSource(seed))}
}

func (d *driver) tell(m ctlMsg) error {
	p := d.p
	m.encode(p.ctl[:])
	for r := 1; r < p.c.Size(); r++ {
		if err := p.c.Send(p.ctl[:], ctlSize, core.TypeBytes, r, tagCtl); err != nil {
			return err
		}
	}
	return nil
}

func (d *driver) verify(i int, full bool) error {
	st := &d.stats[i]
	m := ctlMsg{Verb: ctlVerify, Item: int32(i), Base: int32(st.base)}
	if full {
		m.N = 1
	}
	if err := d.tell(m); err != nil {
		return err
	}
	err := d.p.verify(i, st.base, full)
	st.base += d.p.items[i].Window
	return err
}

// chunk times n ops of item i and appends one sample per op.
func (d *driver) chunk(i, n int, out []int64) ([]int64, error) {
	p, it, st := d.p, d.p.items[i], &d.stats[i]
	if err := d.tell(ctlMsg{Verb: ctlRun, Item: int32(i), N: int32(n), Base: int32(st.base)}); err != nil {
		return out, err
	}
	p.hooks.setCell(i)
	for k := 0; k < n; k++ {
		var err error
		var el time.Duration
		if it.Think > 0 {
			time.Sleep(it.Think)
		}
		op := p.hooks.beginOp(i)
		switch it.Kind {
		case opLat:
			t0 := time.Now()
			err = p.pingpong(i)
			el = time.Since(t0)
		case opBw:
			t0 := time.Now()
			err = p.window(i, st.base+k*it.Window)
			el = time.Since(t0)
		case opRate:
			el, err = p.burstSend(i, st.base+k*it.Window)
		}
		p.hooks.endOp(op)
		if err != nil {
			return out, fmt.Errorf("%s %s: %w", it.Kind, it.Cell.Name, err)
		}
		out = append(out, int64(el))
	}
	p.attempted += int64(n * it.Window)
	st.ops += int64(n * it.Window)
	if it.Kind == opBw || it.Kind == opRate {
		st.base += n * it.Window
	}
	return out, nil
}

// trainTrial runs the training loop for dur and records (steps, ns).
func (d *driver) trainTrial(i int, dur time.Duration) error {
	if err := d.tell(ctlMsg{Verb: ctlRun, Item: int32(i), Dur: int64(dur)}); err != nil {
		return err
	}
	t0 := time.Now()
	steps, err := d.p.train(dur)
	el := time.Since(t0)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if steps < 1 {
		return fmt.Errorf("train: no step completed in %v", dur)
	}
	st := &d.stats[i]
	st.trainSt = append(st.trainSt, [2]int64{steps, int64(el)})
	st.ops += steps
	d.p.attempted += steps
	return nil
}

// Chunks are sized from the op time seen so far, so a control message
// is a negligible part of a chunk and a trial ends close to its budget
// even when the transport changes pace under it.
const (
	chunkTarget = 20 * time.Millisecond
	maxChunkOps = 4096
	idlePause   = 5 * time.Millisecond
)

func (d *driver) chunkOps(i int, budget time.Duration) int {
	per := d.stats[i].perOp
	if per <= 0 {
		return 1
	}
	// At most half the trial, so the shortest trial still ends near its
	// budget (the smoke test's do).
	target := chunkTarget
	if budget/2 < target {
		target = budget / 2
	}
	n := int(target / per)
	if n < 1 {
		n = 1
	}
	if n > maxChunkOps {
		n = maxChunkOps
	}
	return n
}

// timedTrial runs chunks of item i until budget has elapsed.
func (d *driver) timedTrial(i int, budget time.Duration) error {
	st := &d.stats[i]
	if d.p.items[i].Kind == opTrain {
		return d.trainTrial(i, budget)
	}
	// Every trial starts from idle: progress and poll loops have gone
	// quiet, as they are when an application computed since its last
	// message. Without the pause a launched transport is timed in whichever
	// of its polling modes the previous cell happened to leave it.
	start := time.Now()
	time.Sleep(idlePause)
	var samples []int64
	for {
		n := d.chunkOps(i, budget)
		t0 := time.Now()
		var err error
		if samples, err = d.chunk(i, n, samples); err != nil {
			return err
		}
		st.observe(time.Since(t0) / time.Duration(n))
		if time.Since(start) >= budget {
			break
		}
	}
	st.trials = append(st.trials, samples)
	return nil
}

// observe folds a chunk's op time into the estimate that sizes the next
// chunk. The estimate follows the slowest pace seen lately, not the last
// one: a transport that flips between a fast and a slow mode (SHM does)
// must not be handed a chunk sized for the fast mode just as it slows.
func (st *itemStats) observe(per time.Duration) {
	if decayed := st.perOp * 9 / 10; per < decayed {
		per = decayed
	}
	st.perOp = per
}

// warmUp checks every item twice and takes a first, discarded, timing of
// it: plans compile, pools fill, connections dial, rings open.
func (d *driver) warmUp() error {
	for i := range d.p.items {
		for k := 0; k < 2; k++ {
			if err := d.verify(i, true); err != nil {
				return err
			}
		}
		if d.p.items[i].Kind == opTrain {
			continue
		}
		for n := 1; n <= 64; n *= 4 {
			t0 := time.Now()
			if _, err := d.chunk(i, n, nil); err != nil {
				return err
			}
			el := time.Since(t0)
			d.stats[i].observe(el / time.Duration(n))
			if el > 5*time.Millisecond {
				break
			}
		}
	}
	return nil
}

// weight is an item's share of the time budget: the training loop needs
// whole seconds to settle, a cell needs tens of milliseconds. A launched
// transport's 4 MiB windows are its slowest and least steady samples (7 to
// 20 ms each, a fifth apart from one to the next), so they get three shares:
// over twelve runs that took shm-pingpong's bw_mbps from 18.8 % to 9.4 %
// between quartiles and left its other metrics where they were.
func weight(it item, n int) float64 {
	if it.Kind == opTrain {
		return 1.5 * float64(n-1)
	}
	if it.Kind == opBw && it.Think > 0 {
		return 3
	}
	return 1
}

// measure spends budget on trials rounds over the items, each round in a
// freshly shuffled order so drift hits all cells equally. The budget is a
// deadline: each slot gets its weight's share of the time that is left, its
// verified op included, so slow checks and overrunning chunks shorten later
// trials, not the run.
func (d *driver) measure(budget time.Duration, trials int) error {
	items := d.p.items
	var left float64
	for _, it := range items {
		left += weight(it, len(items)) * float64(trials)
	}
	deadline := time.Now().Add(budget)
	for t := 0; t < trials; t++ {
		for _, i := range d.rng.Perm(len(items)) {
			w := weight(items[i], len(items))
			slot := time.Duration(float64(time.Until(deadline)) * w / left)
			left -= w
			t0 := time.Now()
			if err := d.verify(i, false); err != nil {
				return err
			}
			if err := d.timedTrial(i, slot-time.Since(t0)); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish releases the followers and collects their reports.
func (d *driver) finish() ([]followerReport, error) {
	p := d.p
	if err := d.tell(ctlMsg{Verb: ctlQuit}); err != nil {
		return nil, err
	}
	var reports []followerReport
	for r := 1; r < p.c.Size(); r++ {
		m, err := p.c.Mprobe(r, tagAck)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, m.Bytes)
		if _, err := p.c.MRecv(m, buf, -1, core.TypeBytes); err != nil {
			return nil, err
		}
		var rep followerReport
		if err := json.Unmarshal(buf, &rep); err != nil {
			return nil, fmt.Errorf("rank %d report: %w", r, err)
		}
		p.attempted += rep.Attempted
		p.failed += rep.Failed
		if p.firstFail == "" && rep.FirstFail != "" {
			p.firstFail = fmt.Sprintf("rank %d: %s", r, rep.FirstFail)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// ---------------------------------------------------------------------------
// statistics

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile of a sorted slice, linear interpolation.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quantileInt64 is the q-quantile of v (nearest rank below); 0 when empty.
func quantileInt64(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(s[int(q*float64(len(s)-1))])
}

func medianInt64(v []int64) float64 { return quantileInt64(v, 0.5) }
