package core_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
	"mpicd/internal/workloads"
)

// Allocation ceilings for the eager small-message path, per 1 KiB round
// trip with both ranks counted: four one-way operations, two sends and two
// receives. What is left in the plain ping-pong (measured 7): the two
// transport requests of each one-way message, plus the times a []byte
// becomes the `any` the calls take. The blocking calls build no
// core.Request, a matched receive is its own receive operation and holds a
// contiguous buffer's state, wire packets are recycled and nobody sleeps
// on a channel. Every other datatype adds its binding, one object per
// operation (gapped ddt and pure-pack custom: measured 11), plus whatever
// the handler's State returns; its regions cost nothing on top, the region
// slice and the iovec's offset index being pooled together (head + 2
// regions over a handler that boxes a slice: measured 16, was 19 while
// every binding made its offset index, 31 when the state was a pack
// source, an iovec and a two-part composite). A self-send
// is one message, not four, and its two ends meet in one local copy
// (measured 8). Each ceiling is measured + 2; if one trips, a change added per-message
// garbage to the hot path — fix the change, don't bump the ceiling
// without a benchmark showing why.
const (
	eagerPingPongAllocCeiling    = 9  // contiguous bytes
	ddtPingPongAllocCeiling      = 13 // gapped derived datatype, plan-packed
	purePackPingPongAllocCeiling = 13 // custom datatype, head only, stateless handler
	customPingPongAllocCeiling   = 18 // custom datatype, head + 2 regions
	ddtSelfSendAllocCeiling      = 10 // gapped ddt to itself, one rank: an Irecv, a Send, a Wait
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

// pingPongAllocs measures a 1 KiB ping-pong of count elements of dt
// between the two ranks of a fresh world.
func pingPongAllocs(t *testing.T, opt core.Options, dt *core.Datatype, image int, count core.Count) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	sys := core.NewSystem(2, opt)
	defer sys.Close()
	msg, out, buf := make([]byte, image), make([]byte, image), make([]byte, image)
	return measureEcho(t, sys, 100,
		func(c *core.Comm) error {
			if err := c.Send(msg, count, dt, 1, 1); err != nil {
				return err
			}
			_, err := c.Recv(out, count, dt, 1, 2)
			return err
		},
		func(c *core.Comm) error {
			if _, err := c.Recv(buf, count, dt, 0, 1); err != nil {
				return err
			}
			return c.Send(buf, count, dt, 0, 2)
		})
}

// TestEagerSmallMessageAllocsPinned pins the per-message allocation count
// of the eager contiguous path so buffer-pooling work cannot silently
// regress.
func TestEagerSmallMessageAllocsPinned(t *testing.T) {
	avg := pingPongAllocs(t, core.Options{}, core.TypeBytes, 1024, -1)
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
	opt := core.Options{Fabric: fabric.Config{Obs: obs.New(4096)}}
	avg := pingPongAllocs(t, opt, core.TypeBytes, 1024, -1)
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
	opt := core.Options{UCP: ucp.Config{Heartbeat: ucp.DetectorConfig{Period: time.Minute}}}
	avg := pingPongAllocs(t, opt, core.TypeBytes, 1024, -1)
	t.Logf("heartbeat-enabled eager 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > eagerPingPongAllocCeiling {
		t.Fatalf("heartbeat-enabled eager path allocates %.1f/op, ceiling %d", avg, eagerPingPongAllocCeiling)
	}
}

// TestDDTEagerAllocsPinned pins a gapped derived datatype, whose binding
// is all head: 51 struct-simple elements, 1 020 packed bytes.
func TestDDTEagerAllocsPinned(t *testing.T) {
	const count = 51
	dt := core.FromDDT(workloads.StructSimpleType())
	avg := pingPongAllocs(t, core.Options{}, dt, count*workloads.StructSimpleExtent, count)
	t.Logf("gapped ddt 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > ddtPingPongAllocCeiling {
		t.Fatalf("ddt eager path allocates %.1f/op, ceiling %d", avg, ddtPingPongAllocCeiling)
	}
}

// TestCustomPurePackEagerAllocsPinned pins a custom datatype with no
// regions and no handler state: what the seven-callback API itself costs.
func TestCustomPurePackEagerAllocsPinned(t *testing.T) {
	avg := pingPongAllocs(t, core.Options{}, core.TypeCreateCustom(identityHandler{}), 1024, 1024)
	t.Logf("pure-pack custom 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > purePackPingPongAllocCeiling {
		t.Fatalf("pure-pack custom eager path allocates %.1f/op, ceiling %d", avg, purePackPingPongAllocCeiling)
	}
}

// TestCustomEagerAllocsPinned pins the custom-datatype eager path with a
// packed head and two regions, which additionally exercises the
// region-scratch pooling in core.
func TestCustomEagerAllocsPinned(t *testing.T) {
	dt := core.TypeCreateCustom(&regionHandler{packed: 256, nreg: 2})
	avg := pingPongAllocs(t, core.Options{}, dt, 1024, 1024)
	t.Logf("custom 1 KiB ping-pong: %.1f allocs/op", avg)
	if avg > customPingPongAllocCeiling {
		t.Fatalf("custom eager path allocates %.1f/op, ceiling %d", avg, customPingPongAllocCeiling)
	}
}

// TestCustomRegionsRndvAllocsPinned: a custom-regions rendezvous costs the
// same allocations per message whatever its region count — the region
// list and its offset index are pooled together, and the pull walks both
// lists without allocating — so 4 096 regions of 16 bytes allocate no more,
// in count or in bytes, than 4 of 16 KiB. Under -race only the payload is
// checked.
func TestCustomRegionsRndvAllocsPinned(t *testing.T) {
	const image = 64 << 10 // rendezvous: past RndvThresh at any region count
	measure := func(nreg int) (allocs float64, bytesPerOp uint64) {
		dt := core.TypeCreateCustom(&regionHandler{nreg: nreg})
		sys := core.NewSystem(2, core.Options{})
		defer sys.Close()
		msg, out, buf := make([]byte, image), make([]byte, image), make([]byte, image)
		for i := range msg {
			msg[i] = byte(i*7 + nreg)
		}
		roundTrip := func(c *core.Comm) error {
			if err := c.Send(msg, image, dt, 1, 1); err != nil {
				return err
			}
			_, err := c.Recv(out, image, dt, 1, 2)
			return err
		}
		echo := func(c *core.Comm) error {
			if _, err := c.Recv(buf, image, dt, 0, 1); err != nil {
				return err
			}
			return c.Send(buf, image, dt, 0, 2)
		}
		// The first pass also grows the pooled scratch to the region count;
		// the bytes are read off the second. A few hundred round trips
		// amortise a pool the collector emptied meanwhile.
		iters := 400
		if raceEnabled {
			iters = 4
		}
		allocs = measureEcho(t, sys, iters, roundTrip, echo)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measureEcho(t, sys, iters, roundTrip, echo)
		runtime.ReadMemStats(&after)
		if !bytes.Equal(out, msg) {
			t.Fatalf("%d regions: the echo differs from what was sent", nreg)
		}
		return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(iters+1)
	}
	fewA, fewB := measure(4)
	manyA, manyB := measure(4096)
	t.Logf("custom-regions 64 KiB rendezvous ping-pong: 4 regions %.1f allocs, %d B; 4 096 regions %.1f allocs, %d B", fewA, fewB, manyA, manyB)
	if raceEnabled {
		return
	}
	if manyA > fewA {
		t.Fatalf("4 096 regions allocate %.1f/op, 4 regions %.1f: allocation grows with the region count", manyA, fewA)
	}
	if manyB > fewB+1<<10 {
		t.Fatalf("4 096 regions allocate %d B/op, 4 regions %d B: a per-region index or list is made per message", manyB, fewB)
	}
}

// TestDDTSelfSendAllocsPinned pins a self-send of a gapped derived datatype
// into the same type: both ends callback-driven, so the one local copy
// stages through a bounce buffer — borrowed from fabric's pool, not made
// per message (16 KiB of garbage a send before it was pooled, which is what
// the byte bound catches; the count alone moves by one).
func TestDDTSelfSendAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const count = 51
	dt := core.FromDDT(workloads.StructSimpleType())
	sys := core.NewSystem(1, core.Options{})
	defer sys.Close()
	c := sys.Comm(0)
	msg, out := make([]byte, count*workloads.StructSimpleExtent), make([]byte, count*workloads.StructSimpleExtent)
	selfSend := func() {
		r, err := c.Irecv(out, count, dt, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(msg, count, dt, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 200
	avg := testing.AllocsPerRun(iters, selfSend)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		selfSend()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / iters
	t.Logf("gapped ddt 1 KiB self-send: %.1f allocs/op, %d B/op", avg, perOp)
	if avg > ddtSelfSendAllocCeiling {
		t.Fatalf("ddt self-send allocates %.1f/op, ceiling %d", avg, ddtSelfSendAllocCeiling)
	}
	if perOp >= fabric.DefaultFragSize {
		t.Fatalf("ddt self-send allocates %d B/op: the bounce buffer is not pooled", perOp)
	}
}
