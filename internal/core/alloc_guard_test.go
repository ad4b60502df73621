package core_test

import (
	"testing"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// Allocation ceilings for the eager small-message path, per round trip
// and with both ranks counted. What is left in the plain ping-pong
// (measured 7 to 8): the two transport requests of each one-way message,
// plus the four times a []byte becomes the `any` the calls take. The
// blocking calls build no core.Request, a matched receive is its own
// receive operation and holds a contiguous buffer's state, wire packets
// are recycled and nobody sleeps on a channel. The custom path (measured 31) adds what
// the handler's State returns, the region slice and iovec and the
// pack-plus-regions composite on each side. The guards leave ~30 %
// headroom; if one trips, a change added per-message garbage to the hot
// path — fix the change, don't bump the ceiling without a benchmark
// showing why.
const (
	eagerPingPongAllocCeiling  = 10 // allocs per 1 KiB contiguous ping-pong (both ranks)
	customPingPongAllocCeiling = 40 // allocs per 1 KiB custom-datatype ping-pong (both ranks)
)

// measureEcho runs a fixed-iteration ping-pong between two in-process
// ranks and returns the average allocations per round trip across the
// whole process (both sides included — AllocsPerRun reads global counts).
func measureEcho(t *testing.T, sys *core.System, iters int, send func(c *core.Comm) error, echo func(c *core.Comm) error) float64 {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		c := sys.Comm(1)
		// AllocsPerRun invokes its body iters+1 times (one warm-up run).
		for i := 0; i < iters+1; i++ {
			if err := echo(c); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c := sys.Comm(0)
	avg := testing.AllocsPerRun(iters, func() {
		if err := send(c); err != nil {
			t.Error(err)
		}
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return avg
}

// TestEagerSmallMessageAllocsPinned pins the per-message allocation count
// of the eager contiguous path so buffer-pooling work cannot silently
// regress.
func TestEagerSmallMessageAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	sys := core.NewSystem(2, core.Options{})
	defer sys.Close()
	const size = 1024
	msg := make([]byte, size)
	out := make([]byte, size)
	buf := make([]byte, size)

	avg := measureEcho(t, sys, 100,
		func(c *core.Comm) error {
			if err := c.Send(msg, -1, core.TypeBytes, 1, 1); err != nil {
				return err
			}
			_, err := c.Recv(out, -1, core.TypeBytes, 1, 2)
			return err
		},
		func(c *core.Comm) error {
			if _, err := c.Recv(buf, -1, core.TypeBytes, 0, 1); err != nil {
				return err
			}
			return c.Send(buf, -1, core.TypeBytes, 0, 2)
		})
	t.Logf("eager 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > eagerPingPongAllocCeiling {
		t.Fatalf("eager path allocates %.1f/op, ceiling %d", avg, eagerPingPongAllocCeiling)
	}
}

// TestObsEagerAllocsPinned runs the same eager ping-pong with the full
// observability layer enabled (metrics registry plus trace ring) and
// holds it to the same ceiling as the uninstrumented path: counters are
// atomics, histogram observation is a fixed-shape bucket increment, and
// trace recording copies one fixed-size struct into a preallocated ring.
func TestObsEagerAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	sys := core.NewSystem(2, core.Options{UCP: ucp.Config{Obs: obs.New(4096)}})
	defer sys.Close()
	const size = 1024
	msg := make([]byte, size)
	out := make([]byte, size)
	buf := make([]byte, size)

	avg := measureEcho(t, sys, 100,
		func(c *core.Comm) error {
			if err := c.Send(msg, -1, core.TypeBytes, 1, 1); err != nil {
				return err
			}
			_, err := c.Recv(out, -1, core.TypeBytes, 1, 2)
			return err
		},
		func(c *core.Comm) error {
			if _, err := c.Recv(buf, -1, core.TypeBytes, 0, 1); err != nil {
				return err
			}
			return c.Send(buf, -1, core.TypeBytes, 0, 2)
		})
	t.Logf("obs-enabled eager 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > eagerPingPongAllocCeiling {
		t.Fatalf("obs-enabled eager path allocates %.1f/op, ceiling %d", avg, eagerPingPongAllocCeiling)
	}
}

// TestHeartbeatEagerAllocsPinned runs the eager ping-pong with the
// liveness detector enabled and holds it to the unchanged ceiling: with
// traffic flowing, detection is piggybacked — one atomic last-seen store
// and a kind check per inbound packet, no per-message garbage. The probe
// period is kept long so the prober goroutine's own (off-path) sends
// cannot blur the measurement.
func TestHeartbeatEagerAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	sys := core.NewSystem(2, core.Options{UCP: ucp.Config{
		Heartbeat: fabric.DetectorConfig{Period: time.Minute},
	}})
	defer sys.Close()
	const size = 1024
	msg := make([]byte, size)
	out := make([]byte, size)
	buf := make([]byte, size)

	avg := measureEcho(t, sys, 100,
		func(c *core.Comm) error {
			if err := c.Send(msg, -1, core.TypeBytes, 1, 1); err != nil {
				return err
			}
			_, err := c.Recv(out, -1, core.TypeBytes, 1, 2)
			return err
		},
		func(c *core.Comm) error {
			if _, err := c.Recv(buf, -1, core.TypeBytes, 0, 1); err != nil {
				return err
			}
			return c.Send(buf, -1, core.TypeBytes, 0, 2)
		})
	t.Logf("heartbeat-enabled eager 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > eagerPingPongAllocCeiling {
		t.Fatalf("heartbeat-enabled eager path allocates %.1f/op, ceiling %d", avg, eagerPingPongAllocCeiling)
	}
}

// TestCustomEagerAllocsPinned pins the custom-datatype eager path, which
// additionally exercises the region-scratch pooling in core.
func TestCustomEagerAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	sys := core.NewSystem(2, core.Options{})
	defer sys.Close()
	const size = 1024
	dt := core.TypeCreateCustom(&regionHandler{packed: 256, nreg: 2})
	msg := make([]byte, size)
	out := make([]byte, size)
	buf := make([]byte, size)

	avg := measureEcho(t, sys, 100,
		func(c *core.Comm) error {
			if err := c.Send(msg, size, dt, 1, 1); err != nil {
				return err
			}
			_, err := c.Recv(out, size, dt, 1, 2)
			return err
		},
		func(c *core.Comm) error {
			if _, err := c.Recv(buf, size, dt, 0, 1); err != nil {
				return err
			}
			return c.Send(buf, size, dt, 0, 2)
		})
	t.Logf("custom 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > customPingPongAllocCeiling {
		t.Fatalf("custom eager path allocates %.1f/op, ceiling %d", avg, customPingPongAllocCeiling)
	}
}
