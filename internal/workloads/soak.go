package workloads

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// The chaos soak orchestrator: bring up an in-process world with
// heartbeat failure detection and fault-wrapped NICs, run the training
// and pub/sub drivers concurrently on every rank (on separate
// communicators, via Dup), replay a seeded chaos schedule against the
// live traffic, and hold the run to its invariants — forward progress
// under the watchdog, verified payloads, recovery after every kill, and
// a world that tears down leak-free. The whole run derives from one
// seed: a failed soak reproduces from its report header alone.

// SoakConfig parameterises a soak run. Zero values get defaults sized
// for a quick (~2 s) smoke run; CI and the mpicd-soak binary raise
// Budget into the tens of seconds.
type SoakConfig struct {
	Ranks  int           // world size (default 5)
	Seed   int64         // chaos schedule seed (default 1)
	Budget time.Duration // wall-clock traffic budget (default 2s)

	Kills         int // rank-kill events (default 1; clamped by the schedule)
	CorruptBursts int // corruption-burst events (default Ranks)
	LinkFlaps     int // link-flap events (default Ranks)

	// WatchdogWindow is the longest tolerated no-progress window across
	// the whole world (default 5s). Any window without a completed
	// training step or pub/sub frame anywhere counts as a stall, and any
	// stall fails the run.
	WatchdogWindow time.Duration

	// MinStepsPerSec, when > 0, is the sustained-throughput floor: total
	// completed training steps divided by elapsed traffic time must not
	// fall below it.
	MinStepsPerSec float64

	// Registry receives every metric the run produces (created fresh
	// when nil). Reuse across runs is not supported: gauge names would
	// collide.
	Registry *obs.Registry

	// Logf, when set, receives progress lines (chaos events, recoveries).
	Logf func(format string, args ...any)
}

func (cfg *SoakConfig) defaults() {
	if cfg.Ranks <= 0 {
		cfg.Ranks = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2 * time.Second
	}
	if cfg.Kills == 0 {
		cfg.Kills = 1
	}
	if cfg.WatchdogWindow <= 0 {
		cfg.WatchdogWindow = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// SoakReport is the outcome of one soak run. Violations lists every
// broken invariant; an empty list is a pass.
type SoakReport struct {
	Seed      int           `json:"seed"`
	Ranks     int           `json:"ranks"`
	Budget    time.Duration `json:"budget_ns"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	Events    []string      `json:"events"` // chaos events actually applied
	Killed    []int         `json:"killed"` // ranks killed, in kill order
	Fenced    []int         `json:"fenced"` // live ranks the survivors agreed dead (ErrExcluded)
	Survivors int           `json:"survivors"`

	TrainSteps  int64   `json:"train_steps"` // completed training steps, all survivors
	PubFrames   int64   `json:"pub_frames"`  // frames published (rank 0)
	Delivered   int64   `json:"delivered"`   // frames consumed off subscriber queues
	Recoveries  int64   `json:"recoveries"`  // Revoke/Agree/Shrink cycles, both drivers
	StepsPerSec float64 `json:"steps_per_sec"`

	TrainP50  time.Duration `json:"train_p50_ns"`
	TrainP99  time.Duration `json:"train_p99_ns"`
	PubSubP50 time.Duration `json:"pubsub_p50_ns"`
	PubSubP99 time.Duration `json:"pubsub_p99_ns"`

	Stalls     int64    `json:"stalls"`
	LeakCheck  string   `json:"leak_check"` // "ok" or the leak error
	Violations []string `json:"violations"`
}

// soakTuning scales the failure-detection and retransmission horizons
// with the traffic budget. The chaos schedule holds flapped links down
// for 2–4% of the budget, so a fixed DeadAfter would make every flap on
// a long run a death verdict and shrink the world to nothing. Scaling
// DeadAfter to ~3% splits the flaps into two populations: most are
// ridden out by retransmission with no failure verdict at all —
// sustained turbulence, the common production case — while the longest
// outlast the detector and exercise the full
// exclusion/fence/shrink/rebind path. The retransmission budget is
// stretched past DeadAfter so the detector's typed verdict
// (ErrProcFailed) always lands before the reliable layer gives up with
// a bare timeout.
func soakTuning(budget time.Duration) (hb ucp.DetectorConfig, rexmitRetries int) {
	deadAfter := budget / 35
	if deadAfter < 150*time.Millisecond {
		deadAfter = 150 * time.Millisecond
	}
	if deadAfter > 2*time.Second {
		deadAfter = 2 * time.Second
	}
	hb = ucp.DetectorConfig{
		Period:       5 * time.Millisecond,
		SuspectAfter: deadAfter / 4,
		DeadAfter:    deadAfter,
	}
	// Default backoff reaches ~381ms over the first 7 attempts, then
	// adds 200ms per round: spend DeadAfter plus a second of margin in
	// the flat tail.
	rexmitRetries = 7 + int((deadAfter+time.Second)/(200*time.Millisecond))
	return hb, rexmitRetries
}

// RunSoak executes one seeded soak run and returns its report. The
// returned error is non-nil exactly when the report has violations (or
// the harness itself failed); the report is valid either way.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg.defaults()
	rep := &SoakReport{Seed: int(cfg.Seed), Ranks: cfg.Ranks, Budget: cfg.Budget}
	reg := cfg.Registry

	poolGauge := obs.LeakGauge{Name: "fabric.pool_outstanding", Fn: func() int64 {
		return reg.Snapshot().Gauges["fabric.pool_outstanding"]
	}}
	snap := obs.TakeLeakSnapshot(poolGauge)
	hb, rexmitRetries := soakTuning(cfg.Budget)

	wd := obs.NewWatchdog(cfg.WatchdogWindow, func(stalled time.Duration, progress int64) {
		cfg.Logf("soak: WATCHDOG no progress for %v (progress=%d)", stalled, progress)
	})
	wd.Register(reg)

	// World: heartbeat detection + one FaultNIC per rank on a shared
	// kill switch, all metrics funneled into the run's registry.
	ks := fabric.NewKillSwitch()
	fns := make([]*fabric.FaultNIC, cfg.Ranks)
	var fnMu sync.Mutex
	opt := core.Options{
		// The chaos schedule injects corruption and link loss, so the
		// world runs the loss-tolerant protocol: CRC32C on eager
		// fragments and pull frames, sender-side retention and
		// retransmission until acked. Without these, a corrupt burst on
		// the zero-copy in-process fabric would hand flipped bytes
		// straight to the application.
		Fabric: fabric.Config{Checksum: true, Obs: &obs.Observer{Registry: reg}},
		UCP: ucp.Config{
			Heartbeat:     hb,
			Reliable:      true,
			RexmitRetries: rexmitRetries,
		},
		WrapNIC: func(rank int, nic fabric.NIC) fabric.NIC {
			fn := fabric.WrapFault(nic, fabric.FaultPlan{Kills: ks})
			fnMu.Lock()
			fns[rank] = fn
			fnMu.Unlock()
			return fn
		},
	}
	sys := core.NewSystem(cfg.Ranks, opt)

	schedule := fabric.BuildChaosSchedule(fabric.ChaosPlan{
		Seed:          cfg.Seed,
		Budget:        cfg.Budget,
		Ranks:         cfg.Ranks,
		Protect:       []int{0}, // pub/sub root and reporting rank
		Kills:         cfg.Kills,
		CorruptBursts: cfg.CorruptBursts,
		LinkFlaps:     cfg.LinkFlaps,
	})
	runner := fabric.NewChaosRunner(fns, schedule)
	var evMu sync.Mutex
	runner.OnEvent = func(ev fabric.ChaosEvent) {
		line := fmt.Sprintf("%v %s rank=%d peer=%d count=%d", ev.At.Round(time.Millisecond), ev.Kind, ev.Rank, ev.Peer, ev.Count)
		evMu.Lock()
		rep.Events = append(rep.Events, line)
		evMu.Unlock()
		cfg.Logf("soak: chaos %s", line)
	}

	// Per-rank bodies: Dup the pub/sub communicator first (collective,
	// must complete world-wide before chaos starts), then run both
	// drivers concurrently.
	stop := make(chan struct{})
	type rankResult struct {
		train    TrainingStats
		pub      PubSubStats
		trainErr error
		pubErr   error
		setupErr error
	}
	results := make([]rankResult, cfg.Ranks)
	var setup, work sync.WaitGroup
	setup.Add(cfg.Ranks)
	work.Add(cfg.Ranks)
	for rank := 0; rank < cfg.Ranks; rank++ {
		go func(rank int) {
			defer work.Done()
			res := &results[rank]
			c := sys.Comm(rank)
			pubComm, err := c.Dup()
			if err != nil {
				res.setupErr = err
				setup.Done()
				return
			}
			setup.Done()
			dead := func() bool { return ks.Dead(rank) }
			rec := newRankRecovery(c, pubComm, dead)
			var drivers sync.WaitGroup
			drivers.Add(2)
			go func() {
				defer drivers.Done()
				res.train, res.trainErr = RunTrainingLoop(c, TrainingConfig{
					Stop: stop, Dead: dead, Registry: reg, Watchdog: wd, rec: rec,
				})
			}()
			go func() {
				defer drivers.Done()
				res.pub, res.pubErr = RunPubSub(pubComm, PubSubConfig{
					Stop: stop, Dead: dead, Registry: reg, Watchdog: wd, rec: rec,
				})
			}()
			drivers.Wait()
		}(rank)
	}
	setup.Wait()

	// Traffic is flowing: arm the clock, the watchdog, and the chaos.
	begin := time.Now()
	wd.Start()
	runner.Start()
	budget := time.AfterFunc(cfg.Budget, func() { close(stop) })

	// Bound the run even if an invariant breaks in a way that wedges a
	// collective (one rank exits on a hard error, its peers block
	// waiting for it): past a grace window, force-kill the whole world —
	// the detectors poison every pending operation, the drivers observe
	// their own death and drain, and the violation is reported instead
	// of the suite hanging.
	workDone := make(chan struct{})
	go func() { work.Wait(); close(workDone) }()
	grace := cfg.Budget + 2*cfg.WatchdogWindow + 10*time.Second
	select {
	case <-workDone:
	case <-time.After(grace):
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("run still live %v past its budget; world force-killed", grace-cfg.Budget))
		for r := 0; r < cfg.Ranks; r++ {
			if fns[r] != nil {
				fns[r].Kill()
			}
		}
		<-workDone
	}
	rep.Elapsed = time.Since(begin)
	budget.Stop()
	runner.Stop()
	wd.Stop()

	rep.Killed = runner.Killed()
	rep.Survivors = cfg.Ranks - len(rep.Killed)
	rep.Stalls = wd.Stalls()
	for rank := range results {
		res := &results[rank]
		if res.train.Fenced || res.pub.Fenced {
			rep.Fenced = append(rep.Fenced, rank)
		}
		rep.TrainSteps += res.train.Steps
		rep.Recoveries += res.train.Recoveries + res.pub.Recoveries
		rep.PubFrames += res.pub.Published
		rep.Delivered += res.pub.Delivered
		for _, e := range []struct {
			what string
			err  error
		}{{"setup", res.setupErr}, {"training", res.trainErr}, {"pubsub", res.pubErr}} {
			if e.err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf("rank %d %s: %v", rank, e.what, e.err))
			}
		}
	}
	if rep.Elapsed > 0 {
		rep.StepsPerSec = float64(rep.TrainSteps) / rep.Elapsed.Seconds()
	}
	th := reg.Histogram("soak.train_iter_ns")
	ph := reg.Histogram("soak.pubsub_iter_ns")
	rep.TrainP50, rep.TrainP99 = time.Duration(th.Quantile(0.50)), time.Duration(th.Quantile(0.99))
	rep.PubSubP50, rep.PubSubP99 = time.Duration(ph.Quantile(0.50)), time.Duration(ph.Quantile(0.99))

	// Tear down, then hold the leak gate: every goroutine and pool
	// buffer the run grabbed — including everything the kills and
	// recoveries abandoned — must be released.
	sys.Close()
	rep.LeakCheck = "ok"
	if err := snap.Check(10*time.Second, poolGauge); err != nil {
		rep.LeakCheck = err.Error()
		rep.Violations = append(rep.Violations, fmt.Sprintf("leak: %v", err))
	}

	// Invariant gates.
	if rep.TrainSteps == 0 {
		rep.Violations = append(rep.Violations, "no training steps completed")
	}
	if rep.PubFrames == 0 {
		rep.Violations = append(rep.Violations, "no frames published")
	}
	if rep.Delivered == 0 {
		rep.Violations = append(rep.Violations, "no frames delivered to subscribers")
	}
	if len(rep.Killed) > 0 && rep.Recoveries == 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d rank(s) killed but no recoveries observed", len(rep.Killed)))
	}
	if rep.Stalls > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("watchdog counted %d stall window(s) of %v", rep.Stalls, cfg.WatchdogWindow))
	}
	if cfg.MinStepsPerSec > 0 && rep.StepsPerSec < cfg.MinStepsPerSec {
		rep.Violations = append(rep.Violations, fmt.Sprintf("throughput %.1f steps/s below floor %.1f", rep.StepsPerSec, cfg.MinStepsPerSec))
	}

	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("soak(seed=%d): %d invariant violation(s):\n  %s",
			cfg.Seed, len(rep.Violations), strings.Join(rep.Violations, "\n  "))
	}
	return rep, nil
}
