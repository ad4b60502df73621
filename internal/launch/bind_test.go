package launch

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"mpicd/internal/core"
)

func TestSliceCPUs(t *testing.T) {
	cpus := []int{0, 1, 2, 3, 8, 9, 10}
	for _, tc := range []struct {
		n    int
		want [][]int
	}{
		{1, [][]int{{0, 1, 2, 3, 8, 9, 10}}},
		{2, [][]int{{0, 1, 2}, {3, 8, 9}}},
		{3, [][]int{{0, 1}, {2, 3}, {8, 9}}},
		{7, [][]int{{0}, {1}, {2}, {3}, {8}, {9}, {10}}},
		{8, nil},
	} {
		pl := sliceCPUs(cpus, tc.n)
		if !reflect.DeepEqual(pl.slices, tc.want) {
			t.Errorf("%d ranks: slices %v, want %v", tc.n, pl.slices, tc.want)
		}
		if tc.want == nil && pl.why != "8 ranks > 7 CPUs" {
			t.Errorf("%d ranks: unbound for %q", tc.n, pl.why)
		}
	}
	if got := cpuList(cpus); got != "0-3,8-10" {
		t.Errorf("cpuList = %q", got)
	}
	if got := cpuList([]int{5}); got != "5" {
		t.Errorf("cpuList = %q", got)
	}
}

// envBindKill makes rank 1's first incarnation of the bindreport task
// SIGKILL itself once it has reported, so its respawn reports too.
const envBindKill = "MPICD_TEST_BIND_KILL"

// runBindReport is the worker side of TestLaunchBindsRanks: connect, then
// print where this process may run and what its stack sized from that.
func runBindReport(in *Info) error {
	w, err := in.Connect(core.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	cfg := w.Worker().Config()
	fmt.Printf("bind rank=%d epoch=%d bound=%t cpus=%s gomaxprocs=%d stripes=%d rexmitmax=%s\n",
		in.Rank, in.Epoch, in.Bound, cpuList(cpus), runtime.GOMAXPROCS(0), cfg.PullStripes, cfg.RexmitMax)
	if os.Getenv(envBindKill) != "" && in.Rank == 1 && in.Epoch == 0 {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return nil
}

// bindReport is one rank's runBindReport line.
type bindReport struct {
	rank, epoch         int
	bound               bool
	cpus                string
	gomaxprocs, stripes int
	rexmitMax           time.Duration
}

// launchBindReport runs the bindreport task and returns the reports by
// rank and epoch.
func launchBindReport(t *testing.T, cmd Cmd) map[[2]int]bindReport {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	cmd.Prog, cmd.Timeout, cmd.Stdout, cmd.Stderr = exe, time.Minute, &out, &out
	// An empty GOMAXPROCS keeps one set for the test binary from deciding
	// the ranks' own.
	cmd.Env = append(cmd.Env, EnvTask+"=bindreport", "GOMAXPROCS=")
	if err := cmd.Run(); err != nil {
		t.Fatalf("job failed: %v\n%s", err, out.String())
	}
	reports := map[[2]int]bindReport{}
	for _, line := range strings.Split(out.String(), "\n") {
		_, line, _ = strings.Cut(line, "] ")
		var r bindReport
		var rexmit string
		if _, err := fmt.Sscanf(line, "bind rank=%d epoch=%d bound=%t cpus=%s gomaxprocs=%d stripes=%d rexmitmax=%s",
			&r.rank, &r.epoch, &r.bound, &r.cpus, &r.gomaxprocs, &r.stripes, &rexmit); err != nil {
			continue
		}
		if r.rexmitMax, err = time.ParseDuration(rexmit); err != nil {
			t.Fatal(err)
		}
		reports[[2]int{r.rank, r.epoch}] = r
	}
	t.Logf("%s", out.String())
	return reports
}

// unboundDefaults is what an unbound rank of an n-rank job computes when
// it may run on ncpu CPUs: NumCPU/n stripes clamped to [1, 4], and a
// retransmission budget of 1 s below 8 ranks a CPU.
func unboundDefaults(n, ncpu int) (stripes int, rexmitMax time.Duration) {
	stripes = min(max(ncpu/n, 1), 4)
	rexmitMax = time.Second
	if (n+ncpu-1)/ncpu >= 8 {
		rexmitMax = 2 * time.Second
	}
	return stripes, rexmitMax
}

// threadCPULists reads each thread of this process's Cpus_allowed_list.
func threadCPULists(t *testing.T) map[string]string {
	t.Helper()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string]string{}
	for _, task := range tasks {
		b, err := os.ReadFile("/proc/self/task/" + task.Name() + "/status")
		if err != nil {
			continue // the thread exited
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
				lists[task.Name()] = strings.TrimSpace(v)
			}
		}
	}
	return lists
}

// TestLaunchBindsRanks: a 2-rank job starts each rank on its own slice of
// the launcher's CPUs, sliced by world rank and kept across a respawn; the
// rank's GOMAXPROCS is its slice, and its stripe count and retransmission
// budget are those an unbound rank of the job computes. A job with more
// ranks than CPUs runs where the launcher runs, as before, and the
// launcher's threads keep their mask.
func TestLaunchBindsRanks(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("CPU binding is Linux only")
	}
	all, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Skipf("binding needs 2 CPUs, this process may run on %d", len(all))
	}
	slices := sliceCPUs(all, 2).slices
	stripes, rexmit := unboundDefaults(2, len(all))
	checkBound := func(t *testing.T, reports map[[2]int]bindReport, keys ...[2]int) {
		t.Helper()
		for _, k := range keys {
			want := bindReport{rank: k[0], epoch: k[1], bound: true, cpus: cpuList(slices[k[0]]),
				gomaxprocs: len(slices[k[0]]), stripes: stripes, rexmitMax: rexmit}
			if got, ok := reports[k]; !ok {
				t.Errorf("no report from rank %d epoch %d", k[0], k[1])
			} else if got != want {
				t.Errorf("rank %d epoch %d reports %+v, want %+v", k[0], k[1], got, want)
			}
		}
	}

	t.Run("fits", func(t *testing.T) {
		for _, tr := range []string{TransportSHM, TransportTCP} {
			checkBound(t, launchBindReport(t, Cmd{N: 2, Transport: tr}), [2]int{0, 0}, [2]int{1, 0})
		}
	})

	t.Run("rpn-1", func(t *testing.T) {
		// Two synthetic nodes of one rank each: rank 1 still gets the
		// second slice, not the first (r % rpn).
		checkBound(t, launchBindReport(t, Cmd{N: 2, RanksPerNode: 1}), [2]int{0, 0}, [2]int{1, 0})
	})

	t.Run("respawn", func(t *testing.T) {
		reports := launchBindReport(t, Cmd{N: 2, Env: []string{envBindKill + "=1"},
			Supervise: &Supervise{MaxRestarts: 1, Backoff: 50 * time.Millisecond}})
		checkBound(t, reports, [2]int{0, 0}, [2]int{1, 0}, [2]int{1, 1})
	})

	t.Run("oversubscribed", func(t *testing.T) {
		// Two CPUs stand for the host, so the job stays small on any
		// machine: Run reads the launcher's CPUs off this goroutine's
		// thread, and the three ranks inherit them.
		two := all[:2]
		unpin, err := pinThread(two)
		if err != nil {
			t.Fatal(err)
		}
		defer unpin()
		const n = 3
		reports := launchBindReport(t, Cmd{N: n})
		stripes, rexmit := unboundDefaults(n, len(two))
		for r := 0; r < n; r++ {
			want := bindReport{rank: r, cpus: cpuList(two), gomaxprocs: len(two), stripes: stripes, rexmitMax: rexmit}
			if got := reports[[2]int{r, 0}]; got != want {
				t.Errorf("rank %d reports %+v, want %+v", r, got, want)
			}
		}
	})

	allList := cpuList(all)
	for tid, list := range threadCPULists(t) {
		if list != allList {
			t.Errorf("launcher thread %s may run on CPUs %s after the jobs, want %s", tid, list, allList)
		}
	}
}
