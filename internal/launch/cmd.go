package launch

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Cmd spawns an N-rank job as N local OS processes, the way mpirun does
// on one node: start a rendezvous listener, fork the workers with their
// MPICD_* identity in the environment — each on CPUs of its own when the
// job fits the launcher's (bind.go) — multiplex their output, and wait.
//
// Exit policy without supervision: the job's status is the first
// non-zero worker exit. As soon as one worker fails, the rest are
// killed — a cross-process job whose rank 3 died is dead, and leaving
// 127 siblings blocked in Recv until the timeout only hides the real
// error. Timeout is a hard backstop that kills everything and reports
// which ranks were still running.
//
// With Supervise set, a failed rank is respawned instead (with an
// incremented MPICD_EPOCH, so the replacement registers through the
// join service and the workers can Grow it back in), until its restart
// budget runs out. Chaos injects seeded SIGKILLs into live workers to
// exercise exactly that path.
type Cmd struct {
	N         int      // number of ranks (required, > 0)
	Prog      string   // worker binary (required)
	Args      []string // worker argv[1:]
	Transport string   // TransportSHM (default) or TransportTCP

	// Dir is the SHM session directory. Empty means a fresh directory
	// under the default temp root, removed when the job ends. Keep it
	// short: unix socket paths cap at ~100 bytes.
	Dir string

	// RanksPerNode carves the job into synthetic nodes of this many
	// consecutive ranks for placement-aware code paths (hierarchical
	// collectives, and pull-stripe scaling in a job too large to bind).
	// 0 or >= N places every rank on one node, which is the truth for a
	// single-host launcher. CPU binding ignores it: every rank runs here.
	RanksPerNode int

	Timeout time.Duration // kill-all guard; default 2 minutes
	Env     []string      // extra KEY=VALUE pairs for every worker

	// Supervise, when non-nil, turns first-failure-kill into a restart
	// policy: failed ranks are respawned with a fresh incarnation epoch
	// until their budget runs out.
	Supervise *Supervise

	// Chaos, when non-nil, runs a seeded kill schedule against the live
	// workers. It only makes sense together with Supervise and a worker
	// program that recovers (the elastic task does).
	Chaos *Chaos

	// Stdout/Stderr receive the workers' output, each line prefixed
	// "[rank] ". Nil means the launcher process's own streams.
	Stdout, Stderr io.Writer

	exitLog []RankExit // completed terminations, in observation order
}

// Supervise is the restart policy for failed ranks.
type Supervise struct {
	// MaxRestarts is the per-rank respawn budget. 0 selects the default
	// of 3; negative means no restarts (supervision then only classifies
	// and reports).
	MaxRestarts int
	// Backoff is the delay before a rank's first respawn, doubling with
	// each consecutive restart of that rank. 0 selects 200ms.
	Backoff time.Duration
}

// Chaos is a deterministic kill schedule: every Interval, SIGKILL one
// uniformly-chosen live worker that has been up for at least MinUp.
// The same Seed reproduces the same victim sequence against the same
// liveness history.
type Chaos struct {
	Seed     int64         // schedule seed; 0 selects 1
	Kills    int           // kill events to inject; 0 selects 1
	Interval time.Duration // spacing between kills; 0 selects 2s
	MinUp    time.Duration // never kill a worker younger than this; 0 selects 1s
}

// RankExit is one observed worker termination.
type RankExit struct {
	Rank  int
	Epoch int    // incarnation that exited (0 = original process)
	Cause string // "ok", "exited with code N", or "killed by SIGxxx"
}

// ExitLog returns every termination Run observed, in order — the
// per-rank exit records behind the supervisor's decisions. Valid after
// Run returns.
func (c *Cmd) ExitLog() []RankExit { return c.exitLog }

// exitCause classifies one worker termination: the signal that killed
// it, or the code it exited with. The distinction drives both the
// supervisor's reporting and the propagated job error — "killed by
// SIGKILL" points at the machine (or the chaos schedule), "exited with
// code 3" points at the program.
type exitCause struct {
	signal syscall.Signal // non-zero when a signal terminated the worker
	code   int            // exit code otherwise
}

func (ec exitCause) String() string {
	if ec.signal != 0 {
		return "killed by " + sigName(ec.signal)
	}
	if ec.code == 0 {
		return "ok"
	}
	return fmt.Sprintf("exited with code %d", ec.code)
}

// classifyExit extracts the termination cause from (*exec.Cmd).Wait's
// error.
func classifyExit(err error) exitCause {
	if err == nil {
		return exitCause{}
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok {
			if ws.Signaled() {
				return exitCause{signal: ws.Signal()}
			}
			return exitCause{code: ws.ExitStatus()}
		}
		return exitCause{code: ee.ExitCode()}
	}
	return exitCause{code: -1}
}

// sigName renders the conventional name for the signals a worker
// plausibly dies to; syscall.Signal's own String is the prose form
// ("killed"), which reads ambiguously in a job error.
func sigName(s syscall.Signal) string {
	switch s {
	case syscall.SIGKILL:
		return "SIGKILL"
	case syscall.SIGTERM:
		return "SIGTERM"
	case syscall.SIGINT:
		return "SIGINT"
	case syscall.SIGSEGV:
		return "SIGSEGV"
	case syscall.SIGABRT:
		return "SIGABRT"
	case syscall.SIGBUS:
		return "SIGBUS"
	case syscall.SIGQUIT:
		return "SIGQUIT"
	}
	return fmt.Sprintf("signal %d", int(s))
}

// rankExit is one worker's termination.
type rankExit struct {
	rank  int
	epoch int
	err   error
}

// Run launches the job and blocks until it ends. The returned error is
// nil only if every rank's final incarnation exited 0 and the
// rendezvous succeeded.
func (c *Cmd) Run() error {
	if c.N <= 0 {
		return fmt.Errorf("launch: Cmd.N = %d", c.N)
	}
	if c.Prog == "" {
		return fmt.Errorf("launch: Cmd.Prog is empty")
	}
	transport := c.Transport
	if transport == "" {
		transport = TransportSHM
	}
	if transport != TransportSHM && transport != TransportTCP {
		return fmt.Errorf("launch: unknown transport %q", transport)
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	rpn := c.RanksPerNode
	if rpn <= 0 || rpn > c.N {
		rpn = c.N
	}
	stdout, stderr := c.Stdout, c.Stderr
	if stdout == nil {
		stdout = os.Stdout
	}
	if stderr == nil {
		stderr = os.Stderr
	}
	maxRestarts := 0
	var backoff time.Duration
	if c.Supervise != nil {
		maxRestarts = c.Supervise.MaxRestarts
		if maxRestarts == 0 {
			maxRestarts = 3
		}
		if maxRestarts < 0 {
			maxRestarts = 0
		}
		backoff = c.Supervise.Backoff
		if backoff <= 0 {
			backoff = 200 * time.Millisecond
		}
	}

	dir := c.Dir
	if transport == TransportSHM && dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "mpicd-*"); err != nil {
			return fmt.Errorf("launch: session dir: %w", err)
		}
		defer os.RemoveAll(dir)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("launch: rendezvous listener: %w", err)
	}
	defer ln.Close()
	rendErr := make(chan error, 1)
	rendStop := make(chan struct{})
	go func() { rendErr <- serveJoin(ln, c.N, rendStop) }()

	var outMu sync.Mutex // one worker line at a time, never interleaved bytes
	var mu sync.Mutex    // procs/alive/startedAt, shared with the chaos goroutine
	procs := make([]*exec.Cmd, c.N)
	alive := make([]bool, c.N)
	startedAt := make([]time.Time, c.N)
	exits := make(chan rankExit, c.N)
	respawns := make(chan int, c.N)

	kill := func() {
		mu.Lock()
		ps := append([]*exec.Cmd(nil), procs...)
		mu.Unlock()
		killAll(ps)
	}

	debug := os.Getenv(EnvDebug) != ""
	logf := func(format string, args ...any) {
		outMu.Lock()
		fmt.Fprintf(stderr, "[launch] "+format+"\n", args...)
		outMu.Unlock()
	}

	place := placeRanks(c.N)
	spawn := func(r, epoch int) error {
		// Bind before the fork: the child inherits this thread's mask.
		bound, why := 0, place.why
		if cpus := place.cpus(r); cpus != nil {
			unpin, err := pinThread(cpus)
			if err == nil {
				defer unpin()
				bound, why = 1, ""
				if debug {
					logf("rank %d on CPUs %s", r, cpuList(cpus))
				}
			} else {
				why = err.Error()
			}
		}
		if debug && why != "" {
			logf("rank %d unbound: %s", r, why)
		}
		p := exec.Command(c.Prog, c.Args...)
		p.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", EnvRank, r),
			fmt.Sprintf("%s=%d", EnvSize, c.N),
			fmt.Sprintf("%s=%s", EnvRend, ln.Addr().String()),
			fmt.Sprintf("%s=%s", EnvTransport, transport),
			fmt.Sprintf("%s=%s", EnvDir, dir),
			fmt.Sprintf("%s=%d", EnvRPN, rpn),
			fmt.Sprintf("%s=%d", EnvNode, r/rpn),
			fmt.Sprintf("%s=%d", EnvEpoch, epoch),
			fmt.Sprintf("%s=%d", EnvBound, bound),
		)
		p.Env = append(p.Env, c.Env...)
		op, _ := p.StdoutPipe()
		ep, _ := p.StderrPipe()
		// Drain both pipes to EOF before calling Wait: Wait closes the
		// pipes as soon as the process exits, and a reader that loses
		// that race silently drops the worker's last lines of output.
		var pw sync.WaitGroup
		pw.Add(2)
		go prefixLines(&pw, &outMu, stdout, r, op)
		go prefixLines(&pw, &outMu, stderr, r, ep)
		if err := p.Start(); err != nil {
			return err
		}
		mu.Lock()
		procs[r], alive[r], startedAt[r] = p, true, time.Now()
		mu.Unlock()
		go func() {
			pw.Wait()
			exits <- rankExit{r, epoch, p.Wait()}
		}()
		return nil
	}

	for r := 0; r < c.N; r++ {
		if err := spawn(r, 0); err != nil {
			kill()
			return fmt.Errorf("launch: start rank %d: %w", r, err)
		}
	}

	chaosStop := make(chan struct{})
	defer close(chaosStop)
	if c.Chaos != nil {
		go runChaos(*c.Chaos, procs, alive, startedAt, &mu, chaosStop, &outMu, stderr)
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	restarts := make([]int, c.N)
	var jobErr error
	failing := false
	live, pending := c.N, 0
	for live > 0 || pending > 0 {
		select {
		case e := <-exits:
			live--
			mu.Lock()
			alive[e.rank] = false
			mu.Unlock()
			cause := classifyExit(e.err)
			c.exitLog = append(c.exitLog, RankExit{Rank: e.rank, Epoch: e.epoch, Cause: cause.String()})
			if e.err == nil || failing {
				continue
			}
			if c.Supervise != nil && restarts[e.rank] < maxRestarts {
				restarts[e.rank]++
				delay := backoff << (restarts[e.rank] - 1)
				logf("rank %d %s; restart %d/%d in %v", e.rank, cause, restarts[e.rank], maxRestarts, delay)
				pending++
				r := e.rank
				time.AfterFunc(delay, func() { respawns <- r })
				continue
			}
			suffix := ""
			if c.Supervise != nil {
				suffix = fmt.Sprintf(" (restart budget %d exhausted)", maxRestarts)
			}
			jobErr = fmt.Errorf("launch: rank %d %s%s: %w", e.rank, cause, suffix, e.err)
			failing = true
			kill() // the job is lost; reap the rest
		case r := <-respawns:
			pending--
			if failing {
				continue
			}
			if err := spawn(r, restarts[r]); err != nil {
				jobErr = fmt.Errorf("launch: respawn rank %d: %w", r, err)
				failing = true
				kill()
				continue
			}
			live++
		case <-timer.C:
			jobErr = fmt.Errorf("launch: job timed out after %v with %d rank(s) still running", timeout, live)
			failing = true
			kill()
			// Pending respawn timers still fire; the failing flag drops
			// them, and live exits drain through the loop condition.
		}
	}
	if debug || (c.Supervise != nil && jobErr != nil) {
		for _, e := range c.exitLog {
			logf("exit record: rank %d epoch %d: %s", e.Rank, e.Epoch, e.Cause)
		}
	}
	ln.Close()
	close(rendStop)
	if err := <-rendErr; err != nil && jobErr == nil {
		jobErr = err
	}
	return jobErr
}

// runChaos executes the kill schedule: every Interval, SIGKILL one
// seeded-random live worker old enough to have gotten off the ground.
// Ticks with no eligible victim are retried rather than skipped, so the
// schedule delivers its full kill count against a healthy job.
func runChaos(ch Chaos, procs []*exec.Cmd, alive []bool, startedAt []time.Time, mu *sync.Mutex, stop <-chan struct{}, outMu *sync.Mutex, stderr io.Writer) {
	if ch.Seed == 0 {
		ch.Seed = 1
	}
	if ch.Kills == 0 {
		ch.Kills = 1
	}
	if ch.Interval <= 0 {
		ch.Interval = 2 * time.Second
	}
	if ch.MinUp <= 0 {
		ch.MinUp = time.Second
	}
	rng := rand.New(rand.NewSource(ch.Seed))
	for kills := 0; kills < ch.Kills; {
		select {
		case <-stop:
			return
		case <-time.After(ch.Interval):
		}
		mu.Lock()
		var candidates []int
		for r := range procs {
			if alive[r] && time.Since(startedAt[r]) >= ch.MinUp {
				candidates = append(candidates, r)
			}
		}
		var victim *exec.Cmd
		vr := -1
		if len(candidates) > 0 {
			vr = candidates[rng.Intn(len(candidates))]
			victim = procs[vr]
		}
		mu.Unlock()
		if victim == nil || victim.Process == nil {
			continue
		}
		kills++
		outMu.Lock()
		fmt.Fprintf(stderr, "[launch] chaos: SIGKILL rank %d (kill %d/%d)\n", vr, kills, ch.Kills)
		outMu.Unlock()
		_ = victim.Process.Kill()
	}
}

// killAll terminates every started worker: SIGTERM first (a worker
// running with MPICD_DEBUG installed a handler that dumps its transport
// state before dying; the Go default is immediate exit), SIGKILL for
// any that linger past a short grace. Safe to call repeatedly and with
// nil slots (ranks that never started).
func killAll(procs []*exec.Cmd) {
	for _, p := range procs {
		if p != nil && p.Process != nil {
			_ = p.Process.Signal(syscall.SIGTERM)
		}
	}
	go func() {
		time.Sleep(3 * time.Second)
		for _, p := range procs {
			if p != nil && p.Process != nil {
				_ = p.Process.Kill()
			}
		}
	}()
}

// prefixLines copies r to w line by line, each prefixed with the rank.
func prefixLines(wg *sync.WaitGroup, mu *sync.Mutex, w io.Writer, rank int, r io.Reader) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		mu.Lock()
		fmt.Fprintf(w, "[%d] %s\n", rank, sc.Bytes())
		mu.Unlock()
	}
}
