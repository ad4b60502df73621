package launch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"mpicd/internal/core"
)

// killPull* shape the message of TestLaunchKillExporterMidPull: 64 MiB as
// 16 Ki regions of 4 KiB, so that a pull is many reads of the sender's
// memory and a sender killed during the first is gone for the rest.
const (
	killPullBytes  = 64 << 20
	killPullRegion = 4 << 10
)

// pagesHandler is a custom datatype with no packed part: a []byte as a
// list of killPullRegion-sized regions.
type pagesHandler struct{}

func (pagesHandler) State(any, core.Count) (any, error)                                { return nil, nil }
func (pagesHandler) FreeState(any) error                                               { return nil }
func (pagesHandler) PackedSize(any, any, core.Count) (core.Count, error)               { return 0, nil }
func (pagesHandler) Pack(any, any, core.Count, core.Count, []byte) (core.Count, error) { return 0, nil }
func (pagesHandler) Unpack(any, any, core.Count, core.Count, []byte) error             { return nil }
func (pagesHandler) RegionCount(_, buf any, _ core.Count) (core.Count, error) {
	return core.Count(len(buf.([]byte)) / killPullRegion), nil
}
func (pagesHandler) Regions(_, buf any, _ core.Count, regions [][]byte) error {
	b := buf.([]byte)
	for i := range regions {
		regions[i] = b[i*killPullRegion : (i+1)*killPullRegion : (i+1)*killPullRegion]
	}
	return nil
}

// runKillPull is the worker side. Rank 1 tells rank 0 its pid and sends
// the message; rank 0 posts the receive, waits until the first bytes of it
// have landed — the pull is under way — and SIGKILLs rank 1. The receive
// must then fail with ErrProcFailed, well inside the watchdog. Rank 1's
// respawn has nothing to do.
func runKillPull(in *Info) error {
	w, err := in.Connect(core.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	if w.Rejoined() {
		return nil
	}
	c, pages := w.Comm, core.TypeCreateCustom(pagesHandler{}, core.WithName("pages"))
	var pid [8]byte
	if c.Rank() == 1 {
		binary.LittleEndian.PutUint64(pid[:], uint64(os.Getpid()))
		if err := c.Send(pid[:], 8, core.TypeBytes, 0, 1); err != nil {
			return err
		}
		buf := make([]byte, killPullBytes)
		for i := range buf {
			buf[i] = 0xA5
		}
		err := c.Send(buf, 1, pages, 0, 2) // never returns: this process is killed here
		return fmt.Errorf("rank 1 outlived its send: %v", err)
	}
	if _, err := c.Recv(pid[:], 8, core.TypeBytes, 1, 1); err != nil {
		return err
	}
	buf := make([]byte, killPullBytes)
	first := (*atomic.Uint32)(unsafe.Pointer(&buf[0]))
	req, err := c.Irecv(buf, 1, pages, 1, 2)
	if err != nil {
		return err
	}
	watchdog := time.Now().Add(30 * time.Second)
	for first.Load() == 0 { // the kernel writes here on the pull's behalf
		if time.Now().After(watchdog) {
			return errors.New("the pull never started")
		}
	}
	if err := syscall.Kill(int(binary.LittleEndian.Uint64(pid[:])), syscall.SIGKILL); err != nil {
		return err
	}
	_, err = req.WaitTimeout(time.Until(watchdog))
	landed := 0
	for ; landed < len(buf) && buf[landed] == 0xA5; landed += killPullRegion {
	}
	fmt.Printf("killpull: %d of %d bytes landed, err=%v procfailed=%v\n", landed, len(buf), err, errors.Is(err, core.ErrProcFailed))
	return nil
}

// TestLaunchKillExporterMidPull: the sender of a 64 MiB rendezvous is
// SIGKILLed while the receiver reads its memory. The receiver must get
// ErrProcFailed — the kernel's ESRCH, promoted — and not hang, whichever
// way the bytes were travelling; the launcher's timeout and the worker's
// own watchdog bound the wait, no sleep does.
func TestLaunchKillExporterMidPull(t *testing.T) {
	sup := &Supervise{MaxRestarts: 1, Backoff: 100 * time.Millisecond}
	err, out, _ := runSupervised(t, 2, TransportSHM, "killpull", sup, nil, time.Minute)
	if err != nil {
		t.Fatalf("job failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "procfailed=true") {
		t.Fatalf("the receiver did not see ErrProcFailed:\n%s", out)
	}
	t.Log(strings.TrimSpace(out))
}
