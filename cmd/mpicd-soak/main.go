// mpicd-soak runs the sustained-traffic chaos soak: an in-process world
// under production-shaped load (training-loop halo exchange + gradient
// allreduce, pub/sub broadcast fan-out with bounded-queue backpressure,
// both on persistent operations) while a seeded schedule of faults —
// corruption bursts, link flaps, rank kills — plays out against it. The
// run must hold its invariants end to end: forward progress within the
// watchdog window, verified payloads, ULFM recovery after every kill,
// and a leak-free tear-down.
//
// Usage:
//
//	mpicd-soak                          # 60s, 5 ranks, 1 kill, seed 1
//	mpicd-soak -budget 90s -kills 2
//	mpicd-soak -seed 20240711 -v        # reproduce a logged run, verbose
//	mpicd-soak -report soak.json        # machine-readable report + metrics
//	mpicd-soak -floor 500               # fail below 500 training steps/s
//
// -multiproc moves the kills from goroutines to real OS processes: the
// world is launched as N supervised workers over a cross-process
// transport, a seeded schedule SIGKILLs live ranks, survivors shrink
// and re-grow each supervised respawn, and the run passes only if the
// job finishes back at full size with verified collectives:
//
//	mpicd-soak -multiproc -kills 2
//	mpicd-soak -multiproc -transport tcp -seed 7 -report soak.json
//
// Exit status 0 iff every invariant held. A failing run prints the
// violated invariants and (when -report is set) the full metric
// registry; the seed in the report header reproduces the exact chaos
// schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"mpicd/internal/launch"
	"mpicd/internal/obs"
	"mpicd/internal/workloads"
	"mpicd/mpi"
)

func main() {
	if task := os.Getenv(launch.EnvTask); task != "" && launch.IsWorker() {
		// Re-executed as a multiproc worker.
		in, err := launch.FromEnv()
		if err != nil {
			log.Fatalf("worker: %v", err)
		}
		var opt mpi.Options
		if os.Getenv(launch.EnvDebug) != "" {
			// The failure dump prints this observer's metrics and trace tail.
			opt.Fabric.Obs = mpi.NewObserver(launch.DebugTraceCap)
		}
		if err := launch.RunTask(task, in, opt); err != nil {
			log.Fatalf("worker rank %d: %v", in.Rank, err)
		}
		return
	}

	ranks := flag.Int("ranks", 5, "world size")
	seed := flag.Int64("seed", 1, "chaos schedule seed (a report's seed reproduces its run)")
	budget := flag.Duration("budget", 60*time.Second, "wall-clock traffic budget")
	kills := flag.Int("kills", 1, "rank-kill events (rank 0 is always protected)")
	bursts := flag.Int("bursts", 0, "corruption-burst events (0 = one per rank)")
	flaps := flag.Int("flaps", 0, "link-flap events (0 = one per rank)")
	window := flag.Duration("watchdog", 5*time.Second, "watchdog no-progress window")
	floor := flag.Float64("floor", 0, "minimum sustained training steps/sec (0 = no floor)")
	report := flag.String("report", "", "write the JSON report (with full metrics) to this path, or - for stdout")
	verbose := flag.Bool("v", false, "log chaos events and recoveries as they happen")
	multiproc := flag.Bool("multiproc", false, "launch real OS processes and SIGKILL them instead of in-process chaos")
	transport := flag.String("transport", "shm", "multiproc transport: shm or tcp")
	flag.Parse()

	if *multiproc {
		if err := runMultiproc(*ranks, *transport, *seed, *kills, *budget, *report, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "mpicd-soak: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "mpicd-soak: PASS")
		return
	}

	reg := obs.NewRegistry()
	cfg := workloads.SoakConfig{
		Ranks:          *ranks,
		Seed:           *seed,
		Budget:         *budget,
		Kills:          *kills,
		CorruptBursts:  *bursts,
		LinkFlaps:      *flaps,
		WatchdogWindow: *window,
		MinStepsPerSec: *floor,
		Registry:       reg,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	fmt.Fprintf(os.Stderr, "mpicd-soak: %d ranks, budget %v, %d kill(s), seed %d\n",
		cfg.Ranks, cfg.Budget, cfg.Kills, cfg.Seed)
	rep, runErr := workloads.RunSoak(cfg)

	fmt.Fprintf(os.Stderr,
		"mpicd-soak: %v elapsed, %d/%d ranks survived %d chaos event(s) (%d killed, %d fenced)\n"+
			"  training: %d steps (%.0f/s), p50 %v, p99 %v\n"+
			"  pub/sub:  %d frames published, %d delivered, p50 %v, p99 %v\n"+
			"  recovery: %d cycles; stalls: %d; leak check: %s\n",
		rep.Elapsed.Round(time.Millisecond), rep.Survivors, rep.Ranks, len(rep.Events), len(rep.Killed), len(rep.Fenced),
		rep.TrainSteps, rep.StepsPerSec, rep.TrainP50, rep.TrainP99,
		rep.PubFrames, rep.Delivered, rep.PubSubP50, rep.PubSubP99,
		rep.Recoveries, rep.Stalls, rep.LeakCheck)

	if *report != "" {
		if err := writeReport(*report, rep, reg); err != nil {
			fmt.Fprintf(os.Stderr, "mpicd-soak: writing report: %v\n", err)
			os.Exit(1)
		}
	}

	if runErr != nil {
		fmt.Fprintf(os.Stderr, "mpicd-soak: FAIL: %v\n", runErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mpicd-soak: PASS")
}

// runMultiproc is the cross-process soak: launch the elastic task as
// real supervised worker processes, SIGKILL `kills` of them on the
// seeded schedule, and require the job to finish back at full size.
// Rank 0's recovery telemetry (detection latency, recovery-cycle time)
// is printed and, with -report, written as JSON alongside the launcher's
// per-rank exit log.
func runMultiproc(ranks int, transport string, seed int64, kills int, budget time.Duration, report string, verbose bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	repPath := filepath.Join(os.TempDir(), fmt.Sprintf("mpicd-soak-elastic-%d.json", os.Getpid()))
	defer os.Remove(repPath)
	// Size the loop to the wall-clock budget: 25ms-spaced iterations,
	// leaving the kill schedule (2s spacing, 1s minimum uptime) room to
	// land every event while traffic still flows.
	iters := int(budget / (25 * time.Millisecond))
	if iters < 100 {
		iters = 100
	}
	cmd := launch.Cmd{
		N:         ranks,
		Prog:      exe,
		Transport: transport,
		Timeout:   budget + 2*time.Minute,
		Supervise: &launch.Supervise{},
		Chaos:     &launch.Chaos{Seed: seed, Kills: kills},
		Env: []string{
			launch.EnvTask + "=elastic",
			launch.EnvElasticKill + "=none",
			fmt.Sprintf("%s=%d", launch.EnvElasticIters, iters),
			launch.EnvElasticSpin + "=25ms",
			launch.EnvElasticOut + "=" + repPath,
		},
	}
	if !verbose {
		cmd.Stdout = os.Stderr // worker chatter stays visible but off stdout
	}
	fmt.Fprintf(os.Stderr, "mpicd-soak: multiproc: %d ranks over %s, %d kill(s), seed %d, %d iterations\n",
		ranks, transport, kills, seed, iters)
	start := time.Now()
	runErr := cmd.Run()
	elapsed := time.Since(start)

	var killed, respawned int
	for _, ex := range cmd.ExitLog() {
		if ex.Cause != "ok" {
			killed++
		}
		if ex.Epoch > 0 {
			respawned++
		}
		fmt.Fprintf(os.Stderr, "  rank %d epoch %d: %s\n", ex.Rank, ex.Epoch, ex.Cause)
	}
	if runErr != nil {
		return runErr
	}

	var rep struct {
		Transport  string  `json:"transport"`
		Ranks      int     `json:"ranks"`
		Iters      int     `json:"iters"`
		Recoveries int     `json:"recoveries"`
		DetectMs   float64 `json:"detect_ms"`
		RecoverMs  float64 `json:"recover_ms"`
	}
	if b, err := os.ReadFile(repPath); err == nil {
		_ = json.Unmarshal(b, &rep)
	}
	fmt.Fprintf(os.Stderr,
		"mpicd-soak: multiproc: %v elapsed, %d killed, %d respawned, %d recovery cycle(s)\n"+
			"  detect %.1fms, recover %.1fms\n",
		elapsed.Round(time.Millisecond), killed, respawned, rep.Recoveries, rep.DetectMs, rep.RecoverMs)
	if kills > 0 && respawned == 0 {
		return fmt.Errorf("chaos schedule (%d kills) produced no respawns", kills)
	}
	if report != "" {
		doc := struct {
			Mode      string            `json:"mode"`
			Transport string            `json:"transport"`
			Ranks     int               `json:"ranks"`
			Seed      int64             `json:"seed"`
			ElapsedMs float64           `json:"elapsed_ms"`
			Killed    int               `json:"killed"`
			Respawned int               `json:"respawned"`
			Recovery  any               `json:"recovery"`
			ExitLog   []launch.RankExit `json:"exit_log"`
		}{"multiproc", transport, ranks, seed, float64(elapsed.Microseconds()) / 1000, killed, respawned, rep, cmd.ExitLog()}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if report == "-" {
			_, err = os.Stdout.Write(out)
			return err
		}
		return os.WriteFile(report, out, 0o644)
	}
	return nil
}

// writeReport emits the soak report plus the full metric registry as one
// JSON document.
func writeReport(path string, rep *workloads.SoakReport, reg *obs.Registry) error {
	doc := struct {
		*workloads.SoakReport
		Metrics obs.Snapshot `json:"metrics"`
	}{rep, reg.Snapshot()}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
