// mpicd-run is the repo's mpirun: it forks an N-rank job as N local
// processes wired together over the shared-memory or TCP provider.
//
// Launch an arbitrary worker binary (it reads its identity from the
// MPICD_* environment — see internal/launch):
//
//	mpicd-run -n 8 ./my-worker arg1 arg2
//
// Or one of the built-in smoke workloads, run by re-executing this
// binary:
//
//	mpicd-run -n 128 -transport shm -task pingpong
//	mpicd-run -n 32 -transport tcp -task allreduce
//	mpicd-run -n 16 -task ringping          # asserts lazy dialing held
//
// A job that fits the CPUs this process may use starts each rank bound to
// a CPU slice of its own (Linux); a larger one is left to the kernel.
//
// The -rpn flag carves the job into synthetic nodes of that many
// consecutive ranks, which routes small collectives hierarchically and,
// in a job too large to bind, scales per-rank pull parallelism as a real
// multi-node placement would.
//
// -supervise turns first-failure-kill into a restart policy: failed
// ranks are respawned (with a fresh incarnation epoch) until their
// per-rank budget runs out, and every termination is classified and
// reported. -chaos N layers a seeded SIGKILL schedule on top; together
// with the elastic task that is the full recovery demo — kill, detect,
// shrink, respawn, grow:
//
//	mpicd-run -n 4 -task elastic -supervise
//	mpicd-run -n 4 -task elastic -supervise -chaos 2 -chaos-seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mpicd/internal/launch"
	"mpicd/mpi"
)

func main() {
	log.SetFlags(0)
	if task := os.Getenv(launch.EnvTask); task != "" && launch.IsWorker() {
		runWorker(task)
		return
	}

	n := flag.Int("n", 2, "number of ranks")
	transport := flag.String("transport", "shm", "shm or tcp")
	task := flag.String("task", "pingpong", "built-in workload when no program is given: pingpong, allreduce, ringping, elastic")
	rpn := flag.Int("rpn", 0, "ranks per synthetic node (0: all ranks share one node)")
	dir := flag.String("dir", "", "SHM session directory (default: fresh temp dir)")
	timeout := flag.Duration("timeout", 2*time.Minute, "kill the job after this long")
	supervise := flag.Bool("supervise", false, "respawn failed ranks instead of killing the job")
	restarts := flag.Int("restarts", 0, "per-rank respawn budget under -supervise (0: default of 3)")
	chaosKills := flag.Int("chaos", 0, "SIGKILL this many workers on a seeded schedule (implies -supervise)")
	chaosSeed := flag.Int64("chaos-seed", 0, "chaos schedule seed (0: default of 1)")
	chaosEvery := flag.Duration("chaos-interval", 0, "spacing between chaos kills (0: default of 2s)")
	flag.Parse()

	cmd := launch.Cmd{
		N:            *n,
		Transport:    *transport,
		Dir:          *dir,
		RanksPerNode: *rpn,
		Timeout:      *timeout,
	}
	if *supervise || *chaosKills > 0 {
		cmd.Supervise = &launch.Supervise{MaxRestarts: *restarts}
	}
	if *chaosKills > 0 {
		cmd.Chaos = &launch.Chaos{Seed: *chaosSeed, Kills: *chaosKills, Interval: *chaosEvery}
	}
	if flag.NArg() > 0 {
		cmd.Prog = flag.Arg(0)
		cmd.Args = flag.Args()[1:]
	} else {
		exe, err := os.Executable()
		if err != nil {
			log.Fatalf("mpicd-run: %v", err)
		}
		cmd.Prog = exe
		cmd.Env = []string{launch.EnvTask + "=" + *task}
		if *task == "elastic" && cmd.Chaos != nil {
			// The launcher's schedule owns the kills; disable the task's
			// deterministic self-kill so the two don't compound, and
			// stretch the loop so the job outlives the kill schedule
			// (explicit MPICD_ELASTIC_* settings win).
			cmd.Env = append(cmd.Env, launch.EnvElasticKill+"=none")
			if os.Getenv(launch.EnvElasticIters) == "" {
				cmd.Env = append(cmd.Env, launch.EnvElasticIters+"=400")
			}
			if os.Getenv(launch.EnvElasticSpin) == "" {
				cmd.Env = append(cmd.Env, launch.EnvElasticSpin+"=25ms")
			}
		}
	}
	start := time.Now()
	runErr := cmd.Run()
	if cmd.Supervise != nil {
		for _, ex := range cmd.ExitLog() {
			if ex.Cause != "ok" || ex.Epoch > 0 {
				fmt.Printf("mpicd-run: rank %d epoch %d: %s\n", ex.Rank, ex.Epoch, ex.Cause)
			}
		}
	}
	if runErr != nil {
		log.Fatalf("mpicd-run: %v", runErr)
	}
	fmt.Printf("mpicd-run: %d ranks over %s ok in %v\n", *n, *transport, time.Since(start).Round(time.Millisecond))
}

// runWorker is the re-executed side of a built-in workload.
func runWorker(task string) {
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
}
