package launch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/layout"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// Built-in worker tasks. cmd/mpicd-run re-executes itself with
// MPICD_WORKER_TASK naming one of these, and the launch e2e tests reuse
// them from the re-executed test binary, so the exact same traffic
// patterns validate the CLI and the package.
const EnvTask = "MPICD_WORKER_TASK"

// EnvDebug turns on failure forensics in built-in tasks: a state dump
// on task error, and a SIGTERM handler that dumps before dying (the
// launcher kills survivors with SIGTERM first, so when one rank times
// out, every OTHER rank reports what it was stuck on). "2" adds full
// goroutine stacks.
const EnvDebug = "MPICD_DEBUG"

// DebugTraceCap is the message trace a worker keeps for its EnvDebug
// dump: in a hang traffic stops, so the trace's last events are what is
// stuck.
const DebugTraceCap = 4096

// RunTask connects a world from in and runs the named built-in task.
// Under EnvDebug its failure dump prints the metrics and message trace
// of opt.Fabric.Obs when the caller attached one (the mpicd-run and
// mpicd-soak workers attach one with DebugTraceCap events), and the
// process's control events (obs.Control) in any case.
func RunTask(name string, in *Info, opt core.Options) error {
	if name == "elastic" && opt.UCP.Heartbeat.Period == 0 {
		// Elastic recovery hinges on failure detection: without a
		// heartbeat, a survivor blocked in Recv on a SIGKILLed peer only
		// learns of the death from transport-level evidence, which a
		// quiet link may never produce. Default a snappy single-host
		// cadence; MPICD_HB_* (applied in Connect) overrides it.
		opt.UCP.Heartbeat = ucp.DetectorConfig{
			Period:       20 * time.Millisecond,
			SuspectAfter: 150 * time.Millisecond,
			DeadAfter:    600 * time.Millisecond,
		}
	}
	w, err := in.Connect(opt)
	if err != nil {
		return err
	}
	defer w.Close()
	if os.Getenv(EnvDebug) != "" {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGTERM)
		go func() {
			<-ch
			w.debugDump("killed")
			os.Exit(1)
		}()
	}
	err = runTask(name, w)
	if err != nil && os.Getenv(EnvDebug) != "" {
		w.debugDump(err.Error())
	}
	if err == nil && name != "exitrace" {
		// Exit linger: task completion is not symmetric across ranks. A
		// rank can finish the closing collective and exit while a peer
		// still owes that collective's last acknowledgements — and a
		// straggler whose retransmissions then hit a closed port reads
		// connect-refused as hard death evidence and declares the finished
		// rank failed (observed as a survivor stranded at size 1 after
		// everyone else exited cleanly). Keep the fabric alive briefly so
		// stragglers drain; heartbeats keep flowing, so the linger can
		// never be mistaken for a death. The exitrace task skips it: it is
		// the check that Close alone makes an immediate exit safe.
		time.Sleep(exitLinger)
	}
	return err
}

// exitLinger is how long a successfully finished worker keeps its fabric
// serving (acks, retransmit requests, heartbeats) before exiting. It
// must exceed the scheduling skew between ranks finishing the same final
// collective on a loaded machine.
const exitLinger = 500 * time.Millisecond

func runTask(name string, w *World) error {
	switch name {
	case "pingpong":
		return taskPingpong(w.Comm)
	case "allreduce":
		return taskAllreduce(w.Comm)
	case "ringping":
		return taskRingping(w)
	case "thinkpong":
		return taskThinkpong(w)
	case "crash":
		return taskCrash(w.Comm)
	case "killself":
		return taskKillself(w)
	case "elastic":
		return taskElastic(w)
	case "facts":
		return taskFacts(w)
	case "exitrace":
		return taskExitRace(w.Comm)
	default:
		return fmt.Errorf("launch: unknown worker task %q", name)
	}
}

// debugDump writes the rank's forensics to stderr: the observer's metrics
// (every ucp, fabric and hb counter and queue depth), the tail of its
// message trace and the process's control events (connections,
// revocations, recovery steps), one event a line, then the provider's
// channel state.
func (w *World) debugDump(reason string) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rank %d debug (%s):\n", w.Info.Rank, reason)
	events := obs.Control.Events()
	if o := w.nic.Config().Obs; o != nil {
		_ = o.Registry.WriteJSON(&b)
		events = append(o.Trace.Events(), events...)
	}
	enc := json.NewEncoder(&b)
	for _, ev := range events {
		_ = enc.Encode(ev)
	}
	if d, ok := w.nic.(interface{ DebugState() string }); ok {
		b.WriteString(d.DebugState())
	}
	os.Stderr.Write(b.Bytes())
	if os.Getenv(EnvDebug) == "2" {
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
	}
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// taskPingpong pairs rank i with rank i^1 (the last rank idles when the
// world is odd) and pingpongs an eager-sized and a rendezvous-sized
// payload, verifying both directions, then barriers.
func taskPingpong(c *core.Comm) error {
	rank, size := c.Rank(), c.Size()
	peer := rank ^ 1
	if peer < size {
		for _, n := range []int{64, 1 << 20} {
			mine := fill(n, byte(rank+1))
			got := make([]byte, n)
			if rank < peer {
				if err := c.Send(mine, core.Count(n), core.TypeBytes, peer, 7); err != nil {
					return err
				}
				if _, err := c.Recv(got, core.Count(n), core.TypeBytes, peer, 7); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(got, core.Count(n), core.TypeBytes, peer, 7); err != nil {
					return err
				}
				if err := c.Send(mine, core.Count(n), core.TypeBytes, peer, 7); err != nil {
					return err
				}
			}
			if !bytes.Equal(got, fill(n, byte(peer+1))) {
				return fmt.Errorf("rank %d: %d-byte pingpong payload mismatch from %d", rank, n, peer)
			}
		}
	}
	return c.Barrier()
}

// taskThinkpong ping-pongs a small message between ranks 0 and 1 with
// think time before every round trip — 5 ms, and once a long pause — so
// each message finds the peer's progress goroutine asleep, the way an
// application that computed since its last message finds it. A healthy
// link wakes the receiver well inside the retransmit timer however long
// it slept; each rank reports its worker's retransmit and ack counts and
// its goroutines, so the launch test can pin retransmissions at zero, and
// over SHM acks at zero and the rank's goroutines at what an unacked
// worker keeps.
func taskThinkpong(w *World) error {
	c := w.Comm
	const rounds, think, pause = 40, 5 * time.Millisecond, 2500 * time.Millisecond
	if rank, peer := c.Rank(), c.Rank()^1; peer < 2 {
		buf := make([]byte, 64)
		for i := 0; i < rounds; i++ {
			if rank == 0 {
				time.Sleep(think)
				if i == rounds/2 {
					time.Sleep(pause)
				}
				if err := c.Send(fill(64, byte(i)), 64, core.TypeBytes, peer, 21); err != nil {
					return err
				}
			}
			if _, err := c.Recv(buf, 64, core.TypeBytes, peer, 21); err != nil {
				return err
			}
			if !bytes.Equal(buf, fill(64, byte(i))) {
				return fmt.Errorf("rank %d: round %d payload mismatch", rank, i)
			}
			if rank == 1 {
				if err := c.Send(buf, 64, core.TypeBytes, peer, 21); err != nil {
					return err
				}
			}
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	// goroutines: the stack's, besides the one running this task.
	st := w.worker.Stats()
	fmt.Printf("rank %d: rexmits=%d acks=%d goroutines=%d\n", c.Rank(), st.Retransmits.Load(), st.AcksSent.Load(), runtime.NumGoroutine()-1)
	return nil
}

// taskExitRace is the exit race end to end. Rank r sends its ring neighbour
// r+1 a burst — one rendezvous message, then a 64 B and a 20 KiB eager one
// (two fragments: over SHM they cross the socket, the 64 B the ring) — and
// exits as soon as its last send completes, with no linger. Every rank but 0
// sends only once its own burst from r-1 arrived and was verified, so the
// receiver is still running when the sender leaves, and what decides whether
// r+1 gets the eager bytes is whether r's Close waited until r+1's progress
// loop had taken them in: an unacked eager send completes before that.
func taskExitRace(c *core.Comm) error {
	rank, size := c.Rank(), c.Size()
	right, left := (rank+1)%size, (rank+size-1)%size
	sizes := []int{64 << 10, 64, 20 << 10}
	bufs := make([][]byte, len(sizes))
	reqs := make([]*core.Request, len(sizes))
	for i, n := range sizes {
		bufs[i] = make([]byte, n)
		r, err := c.Irecv(bufs[i], core.Count(n), core.TypeBytes, left, 40+i)
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	send := func() error {
		for i, n := range sizes {
			if err := c.Send(fill(n, byte(rank+i)), core.Count(n), core.TypeBytes, right, 40+i); err != nil {
				return err
			}
		}
		return nil
	}
	recv := func() error {
		if err := core.WaitAll(reqs...); err != nil {
			return fmt.Errorf("rank %d: burst from %d: %w", rank, left, err)
		}
		for i, n := range sizes {
			if !bytes.Equal(bufs[i], fill(n, byte(left+i))) {
				return fmt.Errorf("rank %d: %d-byte message from %d corrupted", rank, n, left)
			}
		}
		return nil
	}
	if rank == 0 {
		if err := send(); err != nil {
			return err
		}
		return recv()
	}
	if err := recv(); err != nil {
		return err
	}
	return send()
}

// taskAllreduce verifies an int64 sum Allreduce and a Bcast — the two
// collectives that reroute hierarchically when the launcher reports a
// multi-node placement.
func taskAllreduce(c *core.Comm) error {
	rank, size := c.Rank(), c.Size()
	const count = 257
	send, recv := make([]byte, 8*count), make([]byte, 8*count)
	for i := 0; i < count; i++ {
		layout.PutI64(send, 8*i, int64((rank+1)*(i+1)))
	}
	if err := c.Allreduce(send, recv, count, core.FromDDT(ddt.Int64), core.OpSumInt64); err != nil {
		return err
	}
	sum := int64(size * (size + 1) / 2)
	for i := 0; i < count; i++ {
		if got, want := layout.I64(recv, 8*i), sum*int64(i+1); got != want {
			return fmt.Errorf("rank %d allreduce elem %d: got %d, want %d", rank, i, got, want)
		}
	}
	want := fill(4096, 3)
	buf := make([]byte, len(want))
	if rank == 0 {
		copy(buf, want)
	}
	if err := c.Bcast(buf, core.Count(len(buf)), core.TypeBytes, 0); err != nil {
		return err
	}
	if !bytes.Equal(buf, want) {
		return fmt.Errorf("rank %d: bcast payload mismatch", rank)
	}
	return c.Barrier()
}

// taskRingping exchanges with the two ring neighbors only — no
// collectives, whose tree schedules would dial extra peers — and then
// asserts lazy dialing held: this rank's connection count must not
// exceed its neighbor count.
func taskRingping(w *World) error {
	c := w.Comm
	rank, size := c.Rank(), c.Size()
	right, left := (rank+1)%size, (rank+size-1)%size
	buf := make([]byte, 8)
	sr, err := c.Isend(fill(8, byte(rank)), 8, core.TypeBytes, right, 9)
	if err != nil {
		return err
	}
	if _, err := c.Recv(buf, 8, core.TypeBytes, left, 9); err != nil {
		return err
	}
	if _, err := sr.Wait(); err != nil {
		return err
	}
	if !bytes.Equal(buf, fill(8, byte(left))) {
		return fmt.Errorf("rank %d: ring payload mismatch", rank)
	}
	// Echo back so both directions of each neighbor link carried data.
	sr, err = c.Isend(buf, 8, core.TypeBytes, left, 10)
	if err != nil {
		return err
	}
	if _, err := c.Recv(buf, 8, core.TypeBytes, right, 10); err != nil {
		return err
	}
	if _, err := sr.Wait(); err != nil {
		return err
	}
	// Quiesce before anyone closes (like MPI, finalization is
	// collective): a two-pass ring token barrier. The collect pass
	// certifies every rank finished its traffic; the release pass lets
	// ranks exit. Both passes ride the existing neighbor links, so the
	// connection count stays exactly the ring degree — and the final
	// release forward is acked (TCP) or drained at Close (SHM) before the
	// forwarding rank tears down.
	token := make([]byte, 1)
	for _, tag := range []int{11, 12} {
		if rank == 0 {
			if err := c.Send(token, 1, core.TypeBytes, right, tag); err != nil {
				return err
			}
			if _, err := c.Recv(token, 1, core.TypeBytes, left, tag); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(token, 1, core.TypeBytes, left, tag); err != nil {
				return err
			}
			if err := c.Send(token, 1, core.TypeBytes, right, tag); err != nil {
				return err
			}
		}
	}
	conns := w.NumConns()
	limit := 2
	if size <= 3 {
		limit = size - 1
	}
	if conns > limit {
		return fmt.Errorf("rank %d: %d connections after ring traffic, want <= %d (lazy dialing broken?)", rank, conns, limit)
	}
	fmt.Printf("rank %d: %d conns\n", rank, conns)
	return nil
}

// taskFacts verifies the bootstrap facts every worker derives from the
// rendezvous: a full address table and the launcher's node placement.
func taskFacts(w *World) error {
	in, c := w.Info, w.Comm
	if c.Rank() != in.Rank || c.Size() != in.Size {
		return fmt.Errorf("comm identity %d/%d != env identity %d/%d", c.Rank(), c.Size(), in.Rank, in.Size)
	}
	if len(w.Addrs) != in.Size || len(w.Nodes) != in.Size {
		return fmt.Errorf("world facts sized %d/%d, want %d", len(w.Addrs), len(w.Nodes), in.Size)
	}
	for r, a := range w.Addrs {
		if a == "" {
			return fmt.Errorf("no address for rank %d", r)
		}
	}
	if w.Nodes[in.Rank] != in.Node {
		return fmt.Errorf("rendezvous says node %d, env says %d", w.Nodes[in.Rank], in.Node)
	}
	if in.RanksPerNode > 0 {
		for r, node := range w.Nodes {
			if want := r / in.RanksPerNode; node != want {
				return fmt.Errorf("rank %d on node %d, want %d", r, node, want)
			}
		}
	}
	return c.Barrier()
}

// taskCrash makes one rank exit non-zero after the world is up, so the
// launcher's kill-the-rest + propagate-first-failure policy can be
// observed end to end. The survivors sleep far past any reasonable kill
// latency; reaching the sleep's end means the launcher failed to reap
// them.
func taskCrash(c *core.Comm) error {
	crasher := 2
	if c.Size() <= crasher {
		crasher = c.Size() - 1
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == crasher {
		os.Exit(3)
	}
	time.Sleep(60 * time.Second)
	return nil
}

// taskKillself makes one rank SIGKILL itself after the world is up — the
// regression workload for termination-cause classification. Ranks do not
// talk after the startup barrier, so the death stalls nobody: without
// supervision the job error must say "killed by SIGKILL" (not an exit
// code), and with supervision the respawned incarnation — which does not
// kill itself again — lets the whole job finish cleanly.
func taskKillself(w *World) error {
	if w.Rejoined() {
		return nil // the replacement's only job is a clean exit
	}
	c := w.Comm
	victim := 1
	if c.Size() <= victim {
		victim = 0
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == victim {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return nil
}
