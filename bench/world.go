package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/fabric"
	"mpicd/internal/launch"
	"mpicd/internal/ucp"
	"mpicd/mpi"
)

// The shape of a run. These are constants and not flags: they are part of
// how a number is formed (a cell's value is a statistic over worlds x trials
// trial medians, see trialsFor), so results taken with other values would
// not compare.
const (
	worldsPerRun = 3 // untraced runs; a traced run is one world
	tracedTrials = 3 // per cell and pass of a traced run's one world
)

// trialsFor is how many interleaved trials each cell gets in one world: four,
// and eight where the workload has so few items (the launched workloads' 6,
// train-step's 4) that a slot stays near 100 ms. A cell's trials are the
// moments at which it meets the host; a metric fed by a single cell, as most
// of those workloads' are, needs more of them to find a quiet one.
func trialsFor(items int) int {
	if items <= 8 {
		return 8
	}
	return 4
}

// runCfg is one run of one workload.
type runCfg struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	// FlipAt names a cell whose expected image gets one byte flipped: the
	// run must then fail. Used to show that verification has teeth.
	FlipAt string
	// Worlds is how many times the world is brought up from nothing. Each
	// world is set up, measured for Seconds/Worlds and torn down; setup_s is
	// the median set-up, and a cell's value is taken over the trials of all
	// worlds. Where buffers land in memory and how the scheduler settles
	// differ from world to world and stay put within one, so several short
	// worlds are steadier than one long one.
	Worlds int
}

// rankWorld is what one rank gets from a world: its communicator and, on
// traced runs, a second communicator over decorated NICs.
type rankWorld struct {
	plain  *core.Comm
	traced *core.Comm
	hooks  *traceHooks
	// ownHooks is true when no other rank shares hooks (launched worlds),
	// so a follower must send its counters to rank 0.
	ownHooks bool
	aux      *auxWorld
}

// followerReport is what every rank but 0 sends back when released.
type followerReport struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FirstFail string            `json:"first_fail,omitempty"`
	UCP       ucp.StatsSnapshot `json:"ucp"`
	Cells     []cellTrace       `json:"cells,omitempty"`
}

// rankMain is the whole program of one rank of one world.
func rankMain(rw rankWorld, def *workloadDef, items []item, cfg runCfg) (*rawResult, error) {
	p, err := openRank(rw.plain, items, cfg.Seed, cfg.FlipAt)
	if err != nil {
		return nil, err
	}
	p.world = rw
	if p.rank != 0 {
		return nil, p.follow()
	}
	d := newDriver(p, cfg.Seed)
	if err := d.warmUp(); err != nil {
		return nil, err
	}
	raw := &rawResult{ReadyUnixNS: time.Now().UnixNano()}
	budget := time.Duration(cfg.Seconds / float64(cfg.Worlds) * float64(time.Second))
	switch {
	case !cfg.Traced:
		if err := d.measure(budget, trialsFor(len(items))); err != nil {
			return nil, err
		}
		raw.Cells = cellResults(d)
	default:
		if err := tracedRun(d, def, budget, raw); err != nil {
			return nil, err
		}
	}
	reports, err := d.finish()
	if err != nil {
		return nil, err
	}
	if cfg.Traced {
		foldReports(d, raw, reports)
	}
	raw.Attempted, raw.Failed, raw.FirstFail = p.attempted, p.failed, p.firstFail
	return raw, nil
}

// ---------------------------------------------------------------------------
// in-process worlds

func runInproc(def *workloadDef, cfg runCfg) (*rawResult, []float64, error) {
	items := def.Items()
	var setups []float64
	var raws []*rawResult
	for rep := 0; rep < cfg.Worlds; rep++ {
		t0 := time.Now()
		// Every set-up pays for its own plan compiles.
		ddt.ResetPlanCache()
		sys := core.NewSystem(def.Ranks, core.Options{})
		worlds := make([]rankWorld, def.Ranks)
		var tsys *core.System
		if cfg.Traced {
			hooks := newTraceHooks(items)
			tsys = core.NewSystem(def.Ranks, core.Options{WrapNIC: func(_ int, nic fabric.NIC) fabric.NIC {
				return &traceNIC{NIC: nic, h: hooks}
			}})
			for r := range worlds {
				worlds[r].traced, worlds[r].hooks = tsys.Comm(r), hooks
			}
		}
		rc := cfg
		rc.Seed = cfg.Seed + int64(rep)<<32 // each world shuffles its own way
		res := make([]*rawResult, def.Ranks)
		errs := make([]error, def.Ranks)
		var wg sync.WaitGroup
		for r := 0; r < def.Ranks; r++ {
			worlds[r].plain = sys.Comm(r)
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				res[r], errs[r] = rankMain(worlds[r], def, items, rc)
				if errs[r] != nil {
					// Unblock the other ranks, whichever world they are on:
					// their next op fails.
					sys.Close()
					if tsys != nil {
						tsys.Close()
					}
				}
			}(r)
		}
		wg.Wait()
		sys.Close()
		if tsys != nil {
			tsys.Close()
		}
		if err := errors.Join(errs...); err != nil {
			return nil, nil, err
		}
		setups = append(setups, float64(res[0].ReadyUnixNS-t0.UnixNano())/1e9)
		raws = append(raws, res[0])
		runtime.GC()
	}
	return mergeRaw(raws), setups, nil
}

// mergeRaw folds the worlds of one run into one result: a cell's trials are
// the trials of all worlds.
func mergeRaw(raws []*rawResult) *rawResult {
	out := raws[len(raws)-1]
	for _, r := range raws[:len(raws)-1] {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if out.FirstFail == "" {
			out.FirstFail = r.FirstFail
		}
		for i := range out.Cells {
			c, o := &out.Cells[i], r.Cells[i]
			c.Trials = append(c.Trials, o.Trials...)
			c.Samples += o.Samples
			c.Ops += o.Ops
			c.P99 = math.Max(c.P99, o.P99)
		}
	}
	for i := range out.Cells {
		out.Cells[i].summarize()
	}
	return out
}

// ---------------------------------------------------------------------------
// launched worlds

// rawFile is where a launched rank 0 leaves its result, in the session
// directory. The launcher relays worker output line by line with a 1 MiB
// cap, which a traced result with its spans exceeds.
const rawFile = "raw.json"

// sessionDir makes a short relative directory for one launched world's
// sockets and segments, inside the checkout. Relative, because unix socket
// paths cap near 100 bytes and a checkout can live anywhere.
func sessionDir(rep int) (string, error) {
	dir := filepath.Join(".bench_build", "s", fmt.Sprintf("%d-%d", os.Getpid(), rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

func runLaunched(def *workloadDef, cfg runCfg) (*rawResult, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	var raws []*rawResult
	for rep := 0; rep < cfg.Worlds; rep++ {
		dir, err := sessionDir(rep)
		if err != nil {
			return nil, nil, err
		}
		rc := cfg
		rc.Seed = cfg.Seed + int64(rep)<<32
		arg, err := json.Marshal(rc)
		if err != nil {
			return nil, nil, err
		}
		cmd := &launch.Cmd{
			N: def.Ranks, Prog: exe, Args: []string{"-worker", string(arg)},
			Transport: def.Transport, Dir: dir, Timeout: 170 * time.Second,
			Stdout: os.Stderr, Stderr: os.Stderr,
		}
		t0 := time.Now()
		err = cmd.Run()
		js, rerr := os.ReadFile(filepath.Join(dir, rawFile))
		os.RemoveAll(dir)
		if err != nil {
			return nil, nil, err
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("launched rank 0 left no result: %w", rerr)
		}
		raw := &rawResult{}
		if err := json.Unmarshal(js, raw); err != nil {
			return nil, nil, fmt.Errorf("worker result: %w", err)
		}
		setups = append(setups, float64(raw.ReadyUnixNS-t0.UnixNano())/1e9)
		if raw.Layers != nil {
			raw.Layers["launch.spawn_to_ready_s"] = float64(raw.WorldUnixNS-t0.UnixNano()) / 1e9
		}
		raws = append(raws, raw)
	}
	return mergeRaw(raws), setups, nil
}

// workerMain is a launched rank: join the world the launcher described,
// run the rank program, and (rank 0) print the raw result for the parent.
func workerMain(arg string) error {
	var cfg runCfg
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		return fmt.Errorf("worker config: %w", err)
	}
	def := findWorkload(cfg.Workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	runtime.GOMAXPROCS(def.procs())
	world, ok, err := mpi.InitFromEnv(mpi.Options{})
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("-worker needs a launcher's environment")
	}
	defer world.Close()
	joined := time.Now().UnixNano()
	items := def.Items()
	rw := rankWorld{plain: world.Comm, ownHooks: true}
	if cfg.Traced {
		rw.aux = &auxWorld{plain: world.Comm, transport: def.Transport, dir: os.Getenv(launch.EnvDir)}
		rw.hooks = newTraceHooks(items)
		hand, err := rw.aux.stack("t", func(nic fabric.NIC) fabric.NIC { return &traceNIC{NIC: nic, h: rw.hooks} })
		if err != nil {
			return err
		}
		defer hand.close()
		rw.traced = hand.comm
	}
	raw, err := rankMain(rw, def, items, cfg)
	if err != nil {
		return err
	}
	if raw != nil {
		raw.WorldUnixNS = joined
		js, err := json.Marshal(raw)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(os.Getenv(launch.EnvDir), rawFile), js, 0o644); err != nil {
			return err
		}
	}
	// Everything this rank sent was acknowledged before its sends returned;
	// a short linger lets the peer's last acknowledgement leave as well.
	time.Sleep(50 * time.Millisecond)
	return nil
}

// ---------------------------------------------------------------------------
// one workload, start to finish

func runWorkload(def *workloadDef, cfg runCfg) (*workloadResult, error) {
	start := time.Now()
	cfg.Workload = def.Name
	if cfg.Worlds < 1 {
		cfg.Worlds = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(def.procs()))
	var (
		raw    *rawResult
		setups []float64
		err    error
	)
	if def.Transport == transportInproc {
		raw, setups, err = runInproc(def, cfg)
	} else {
		raw, setups, err = runLaunched(def, cfg)
	}
	res := &workloadResult{
		Workload: def.Name, Why: def.Why, Transport: def.Transport, Ranks: def.Ranks,
		Loop:  "closed loop, rank 0 drives, one message or one window in flight",
		Procs: def.procs(),
		Seed:  cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced,
		Worlds: cfg.Worlds, Trials: tracedTrials, Statistic: cellStatistic,
		Metrics: map[string]metricValue{},
	}

	if def.Note != "" {
		res.Notes = append(res.Notes, def.Note)
	}
	if err != nil {
		// An op that returned an error is a failed op, and so is the run.
		res.Attempted, res.Failed, res.FailRatio, res.FirstFail = 1, 1, 1, err.Error()
		res.WallS = time.Since(start).Seconds()
		return res, nil
	}
	res.SetupsS = setups
	res.Cells = raw.Cells
	res.Ladder = raw.Ladder
	res.Attempted, res.Failed, res.FirstFail = raw.Attempted, raw.Failed, raw.FirstFail
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	seen := map[string]bool{}
	for _, c := range raw.Cells {
		key := fmt.Sprintf("%s/%d", c.Shape, c.WorkingSet)
		if !seen[key] {
			seen[key] = true
			res.WorkingSetBytes += c.WorkingSet
		}
	}
	if cfg.Traced {
		for _, def := range perLayer {
			res.Metrics[def.Name] = metricValue{Value: raw.Layers[def.Name], Unit: def.Unit}
		}
		res.spans = raw.Spans
	} else {
		res.Trials = trialsFor(len(raw.Cells))
		res.Metrics = endToEndMetrics(raw.Cells, setups)
		res.Spread = spreadsOf(raw.Cells, setups)
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// traceFile is what -trace <path> writes: the spans of each traced pass.
type traceFile struct {
	Schema string          `json:"schema"`
	Traces []workloadTrace `json:"traces"`
}

type workloadTrace struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}
