// Ablation benchmarks for the design choices called out in DESIGN.md:
// protocol thresholds, the region-coalescing optimizer, and the
// contiguous fast path of the derived-datatype engine.
package mpicd_test

import (
	"fmt"
	"testing"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/ddtbench"
	"mpicd/internal/fabric"
	"mpicd/internal/harness"
	"mpicd/internal/obs"
	"mpicd/internal/ucp"
)

// benchOpWith is benchOp with explicit world options.
func benchOpWith(b *testing.B, opt core.Options, op harness.Op) {
	b.Helper()
	sys := core.NewSystem(2, opt)
	defer sys.Close()
	iters := b.N
	done := make(chan error, 1)
	go func() {
		c := sys.Comm(1)
		for i := 0; i < iters; i++ {
			if err := op.Recv(c, 0, 1); err != nil {
				done <- err
				return
			}
			if err := op.Send(c, 0, 2); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c := sys.Comm(0)
	b.SetBytes(2 * op.Bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.Send(c, 1, 1); err != nil {
			b.Fatal(err)
		}
		if err := op.Recv(c, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationRndvThreshold sweeps the eager→rendezvous switch for
// two 64 KiB transfers. Contiguous: too low pays handshakes, too high pays
// the extra eager staging copies. A region-heavy custom type (double-vec,
// 1024-byte subvectors) switches a little below the threshold, its 64
// regions charged against it: below, regions are gathered into eager
// fragments, above, they move zero-copy but pay the handshake.
func BenchmarkAblationRndvThreshold(b *testing.B) {
	const size = 64 * 1024
	ops := []struct {
		name string
		op   func() harness.Op
	}{
		{"contig", func() harness.Op { return harness.PickleOp("roofline", nil, size) }},
		{"custom-regions", func() harness.Op { return harness.DoubleVecOp("custom", size, 1024) }},
	}
	for _, o := range ops {
		for _, thresh := range []int64{4 << 10, 32 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/thresh-%dK", o.name, thresh/1024), func(b *testing.B) {
				opt := core.Options{UCP: ucp.Config{RndvThresh: thresh}}
				benchOpWith(b, opt, o.op())
			})
		}
	}
}

// BenchmarkAblationFragSize sweeps the eager fragment size for a 256 KiB
// callback-packed transfer: small fragments mean more per-packet
// overhead, large ones more staging memory.
func BenchmarkAblationFragSize(b *testing.B) {
	for _, frag := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("frag-%dK", frag/1024), func(b *testing.B) {
			opt := core.Options{Fabric: fabric.Config{FragSize: frag}, UCP: ucp.Config{RndvThresh: 1 << 30}}
			benchOpWith(b, opt, harness.StructSimpleOp("custom", 256<<10))
		})
	}
}

// BenchmarkAblationRegionCoalescing contrasts the two region exposures of
// the same exchange: NAS_MG_y's coalesced rows (few large regions)
// versus NAS_MG_x's per-element regions (thousands of 8-byte pieces) at
// the same packed size — the mechanism behind Figure 10's region
// win/loss split.
func BenchmarkAblationRegionCoalescing(b *testing.B) {
	for _, name := range []string{"NAS_MG_y", "NAS_MG_x"} {
		k, err := ddtbench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		in := k.Instance(1)
		op, err := harness.DDTBenchOp(in, ddtbench.MethodCustomRegions)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%dregions", name, in.Type.NumRuns()), func(b *testing.B) {
			benchOpWith(b, core.Options{}, op)
		})
	}
}

// BenchmarkAblationPullStripes sweeps the striped-rendezvous fan-out
// (Config.PullStripes) over large transfers. struct-vec exposes regions
// and packs under the non-inorder contract, so stripes engage; double-vec
// is declared inorder, so its head is one ordered Get and only its region
// tail stripes. The 32 KiB point stays under the 256 KiB striping
// threshold and pins the no-regression claim for small messages.
// Wall-clock gains need real cores: on GOMAXPROCS=1 the stripes time-slice
// and the sweep only shows the fan-out overhead staying flat.
func BenchmarkAblationPullStripes(b *testing.B) {
	sizes := []int{32 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	ops := []struct {
		name string
		op   func(size int) harness.Op
	}{
		{"struct-vec", func(size int) harness.Op { return harness.StructVecOp("custom", size) }},
		{"double-vec-inorder", func(size int) harness.Op { return harness.DoubleVecOp("custom", size, 1024) }},
	}
	for _, o := range ops {
		for _, size := range sizes {
			for _, stripes := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/size-%dK/stripes-%d", o.name, size/1024, stripes), func(b *testing.B) {
					opt := core.Options{UCP: ucp.Config{PullStripes: stripes}}
					benchOpWith(b, opt, o.op(size))
				})
			}
		}
	}
}

// BenchmarkAblationObs prices the observability layer on the latency
// path: off (fabric.Config.Obs nil — one pointer check per instrumentation
// site), metrics (registry counters, gauges and histograms) and trace
// (metrics plus the per-message lifecycle ring). The 1 KiB point rides
// eager, 64 KiB rides rendezvous. Allocations are reported: the off and
// on variants must match — the layer adds timestamps and atomic bucket
// increments, never per-message garbage (pinned by
// TestObsEagerAllocsPinned in internal/core).
func BenchmarkAblationObs(b *testing.B) {
	modes := []struct {
		name string
		mk   func() *obs.Observer
	}{
		{"off", func() *obs.Observer { return nil }},
		{"metrics", func() *obs.Observer { return obs.New(0) }},
		{"trace", func() *obs.Observer { return obs.New(4096) }},
	}
	for _, size := range []int64{1 << 10, 64 << 10} {
		for _, m := range modes {
			b.Run(fmt.Sprintf("size-%dK/%s", size/1024, m.name), func(b *testing.B) {
				b.ReportAllocs()
				opt := core.Options{Fabric: fabric.Config{Obs: m.mk()}}
				benchOpWith(b, opt, harness.PickleOp("roofline", nil, size))
			})
		}
	}
}

// BenchmarkAblationContigFastPath measures the derived-datatype engine's
// contiguous shortcut against the generic walk on the same bytes.
func BenchmarkAblationContigFastPath(b *testing.B) {
	const size = 1 << 20
	b.Run("contig-fast-path", func(b *testing.B) {
		benchOpWith(b, core.Options{}, harness.StructSimpleNoGapOp("rsmpi", size))
	})
	b.Run("gapped-engine-walk", func(b *testing.B) {
		benchOpWith(b, core.Options{}, harness.StructSimpleOp("rsmpi", size))
	})
}

// BenchmarkAblationHeartbeat prices the liveness detector on the eager
// latency path: off (Heartbeat.Period zero — the NIC is not wrapped at
// all), and on at two probe cadences. With traffic flowing, detection is
// piggybacked — one atomic last-seen store per inbound packet and a kind
// check — and the prober never fires, so the on/off gap is the entire
// per-message cost of failure detection. Allocations must match exactly
// (pinned by TestHeartbeatEagerAllocsPinned in internal/core).
func BenchmarkAblationHeartbeat(b *testing.B) {
	modes := []struct {
		name string
		hb   ucp.DetectorConfig
	}{
		{"off", ucp.DetectorConfig{}},
		{"period-100ms", ucp.DetectorConfig{Period: 100 * time.Millisecond}},
		{"period-5ms", ucp.DetectorConfig{Period: 5 * time.Millisecond}},
	}
	for _, size := range []int64{1 << 10, 64 << 10} {
		for _, m := range modes {
			b.Run(fmt.Sprintf("size-%dK/%s", size/1024, m.name), func(b *testing.B) {
				b.ReportAllocs()
				opt := core.Options{UCP: ucp.Config{Heartbeat: m.hb}}
				benchOpWith(b, opt, harness.PickleOp("roofline", nil, size))
			})
		}
	}
}
