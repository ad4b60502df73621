package launch

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/obs"
)

// The e2e tests launch REAL worker processes by re-executing this test
// binary: TestMain intercepts the relaunch before any test runs and
// hands the process to the named built-in task.
func TestMain(m *testing.M) {
	if task := os.Getenv(EnvTask); task != "" && IsWorker() {
		in, err := FromEnv()
		if err == nil {
			switch task {
			case "killpull":
				err = runKillPull(in) // test-local, in killpull_test.go
			case "bindreport":
				err = runBindReport(in) // test-local, in bind_test.go
			default:
				var opt core.Options
				if os.Getenv(EnvDebug) != "" {
					// As the mpicd-run worker: the dump's metrics and trace.
					opt.Fabric.Obs = obs.New(DebugTraceCap)
				}
				err = RunTask(task, in, opt)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runJob launches n ranks of the given built-in task over transport and
// returns the job error plus the captured worker output.
func runJob(t *testing.T, n int, transport, task string, rpn int, timeout time.Duration) (error, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cmd := Cmd{
		N:            n,
		Prog:         exe,
		Transport:    transport,
		RanksPerNode: rpn,
		Timeout:      timeout,
		Env:          []string{EnvTask + "=" + task},
		Stdout:       &out,
		Stderr:       &out,
	}
	return cmd.Run(), out.String()
}

func TestLaunchPingpong(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			if err, out := runJob(t, 4, tr, "pingpong", 0, time.Minute); err != nil {
				t.Fatalf("job failed: %v\n%s", err, out)
			}
		})
	}
}

func TestLaunchAllreduceWithTopology(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			// rpn 2 over 8 ranks: four synthetic nodes, so the verified
			// Allreduce/Bcast run the hierarchical schedules end to end.
			if err, out := runJob(t, 8, tr, "allreduce", 2, time.Minute); err != nil {
				t.Fatalf("job failed: %v\n%s", err, out)
			}
		})
	}
}

// TestLaunchIdleLinkNoRetransmits: a launched ping-pong whose messages
// always find the receiver idle must finish without one retransmission
// on a healthy link. Over TCP (acked) that is the receiver's wake-up
// inside the 3 ms retransmit timer; over SHM no frame is acked at all:
// both ranks send no ack, and each rank's stack keeps four goroutines (the
// progress loop, the socket plane's accept loop and its one connection's
// reader, the communicator's revoke listener: no janitor, no ack pump —
// acked, it kept six). The TCP count is a timing outcome — a
// loaded machine can hold any one round trip past 3 ms — so a run is
// retried twice before its retransmissions count as the transport's.
func TestLaunchIdleLinkNoRetransmits(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			var out string
			for attempt := 0; attempt < 3; attempt++ {
				var err error
				if err, out = runJob(t, 2, tr, "thinkpong", 0, time.Minute); err != nil {
					t.Fatalf("job failed: %v\n%s", err, out)
				}
				var rexmits, acks, goroutines int
				reports := 0
				for _, line := range strings.Split(out, "\n") {
					var rank, r, a, g int
					_, report, _ := strings.Cut(line, "] ") // the launcher's "[rank] " prefix
					if _, err := fmt.Sscanf(report, "rank %d: rexmits=%d acks=%d goroutines=%d", &rank, &r, &a, &g); err == nil {
						reports++
						rexmits, acks, goroutines = rexmits+r, acks+a, max(goroutines, g)
					}
				}
				if reports != 2 {
					t.Fatalf("want a report from both ranks:\n%s", out)
				}
				if tr == TransportSHM && (acks != 0 || goroutines > 4) {
					t.Fatalf("an unacked SHM rank sent %d acks or kept %d goroutines, want 0 and at most 4:\n%s", acks, goroutines, out)
				}
				if rexmits == 0 {
					return
				}
				t.Logf("attempt %d retransmitted:\n%s", attempt, out)
			}
			t.Fatalf("three runs in a row retransmitted on an idle, healthy link:\n%s", out)
		})
	}
}

// TestLaunchExitRace: every rank of an 8-rank ring sends its neighbour a
// rendezvous, a 64 B and a two-fragment eager message and exits the moment
// its last send completes, with no linger; every receiver must get every
// byte. Over TCP completion is the receiver's ack; over SHM the eager sends
// complete unacked, and it is the drain at Close that keeps the exit from
// overtaking them.
func TestLaunchExitRace(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			if err, out := runJob(t, 8, tr, "exitrace", 0, time.Minute); err != nil {
				t.Fatalf("job failed: %v\n%s", err, out)
			}
		})
	}
}

// TestLaunchLazyDialRing is the lazy-dialing acceptance check across
// real processes: ring-neighbor traffic must leave each rank holding at
// most its ring degree in connections, not a full mesh.
func TestLaunchLazyDialRing(t *testing.T) {
	err, out := runJob(t, 8, TransportSHM, "ringping", 0, time.Minute)
	if err != nil {
		t.Fatalf("job failed: %v\n%s", err, out)
	}
	if strings.Count(out, "conns") != 8 {
		t.Fatalf("expected a conns report from all 8 ranks:\n%s", out)
	}
}

// TestLaunchCrashPropagates: one rank exits 3 after startup; the
// launcher must kill the survivors (who would otherwise sleep 60s) and
// report the failing rank, promptly.
func TestLaunchCrashPropagates(t *testing.T) {
	start := time.Now()
	err, out := runJob(t, 4, TransportSHM, "crash", 0, time.Minute)
	if err == nil {
		t.Fatalf("crash job reported success:\n%s", out)
	}
	if !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("error does not name rank 2 / exit status 3: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("survivors were not killed promptly: job took %v", elapsed)
	}
}

// TestLaunchDebugDump: under EnvDebug a survivor killed by the launcher
// dumps its observer's metrics and the process's control events, one
// event a line, and no longer the hand-formatted unacked-send lines.
func TestLaunchDebugDump(t *testing.T) {
	for _, tr := range []string{TransportSHM, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			err, out, _ := runSupervised(t, 2, tr, "crash", nil, nil, time.Minute, EnvDebug+"=1")
			if err == nil {
				t.Fatalf("crash job reported success:\n%s", out)
			}
			if !strings.Contains(out, `"ucp.r0.eager_sends"`) {
				t.Errorf("dump holds no ucp.r0.eager_sends gauge:\n%s", out)
			}
			install := false
			for _, line := range strings.Split(out, "\n") {
				install = install || strings.Contains(line, `"kind":"control"`) && strings.Contains(line, `"note":"conn install"`)
				if strings.Contains(line, "unacked:") {
					t.Errorf("dump still holds an unacked line: %s", line)
				}
			}
			if !install {
				t.Errorf("dump holds no conn install control event:\n%s", out)
			}
		})
	}
}

// TestLaunchWorldFacts: workers see the address table and placement the
// rendezvous assembled.
func TestLaunchConnectFacts(t *testing.T) {
	if err, out := runJob(t, 6, TransportTCP, "facts", 3, time.Minute); err != nil {
		t.Fatalf("job failed: %v\n%s", err, out)
	}
}

// TestLaunchScale32 exercises a mid-size world — large enough for
// multi-round tree schedules and connection storms, small enough for a
// unit-test budget.
func TestLaunchScale32(t *testing.T) {
	if testing.Short() {
		t.Skip("32-process job in -short mode")
	}
	if err, out := runJob(t, 32, TransportSHM, "allreduce", 8, 2*time.Minute); err != nil {
		t.Fatalf("job failed: %v\n%s", err, out)
	}
}

func TestFromEnvValidation(t *testing.T) {
	t.Setenv(EnvRank, "3")
	t.Setenv(EnvSize, "2")
	if _, err := FromEnv(); err == nil {
		t.Fatal("rank >= size accepted")
	}
	t.Setenv(EnvRank, "bogus")
	if _, err := FromEnv(); err == nil {
		t.Fatal("non-numeric rank accepted")
	}
	t.Setenv(EnvRank, "1")
	t.Setenv(EnvTransport, "")
	t.Setenv(EnvRend, "")
	t.Setenv(EnvDir, "")
	t.Setenv(EnvRPN, "")
	t.Setenv(EnvNode, "")
	in, err := FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if in.Transport != TransportSHM {
		t.Fatalf("default transport = %q, want shm", in.Transport)
	}
}

func TestCmdValidation(t *testing.T) {
	if err := (&Cmd{N: 0, Prog: "x"}).Run(); err == nil {
		t.Fatal("N=0 accepted")
	}
	if err := (&Cmd{N: 2}).Run(); err == nil {
		t.Fatal("empty Prog accepted")
	}
	if err := (&Cmd{N: 2, Prog: "x", Transport: "carrier-pigeon"}).Run(); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
