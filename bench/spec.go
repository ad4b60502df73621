package main

import "runtime"

// This file is the benchmark's table of contents: the end-to-end metrics,
// the per-layer metrics and the workloads, each with the reason it exists.
// BENCHMARK.json at the repository root repeats the names, units, directions
// and bounds in the shape the driver reads; bench_test.go fails if the two
// drift apart.

// metricDef names one metric. Moves records, for a per-layer metric, which
// end-to-end metric it is predicted to move and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
	// Extra marks a metric that result files and -compare carry and
	// BENCHMARK.json does not (see workloadDef.Extra).
	Extra bool
}

// endToEnd lists the metrics a user of the stack would see. Every workload
// of BENCHMARK.json reports every one of them but steps_per_s from the
// untraced run; steps_per_s is the training loop's and train-step's alone.
//
// Every bound is the contract's ceiling, 25 %. The issue's default was 10 %;
// the shared baseline host does not hold it in its noisy half-hours (README,
// "Steadiness"). A bound is held against the median of about ten runs a side,
// which is steadier than a single run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "world bring-up (launcher spawn and rendezvous for the launched workloads), type commit and plan compile, buffer fill, warm-up; median of the set-ups made in one run"},
	{Name: "lat_us_p50", Unit: "us", Better: "lower", Bound: 0.25,
		Moves: "one-way latency: half the ping-pong round trip, median; geometric mean over the workload's latency cells"},
	{Name: "bw_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25,
		Moves: "useful payload bytes delivered per second (10^6 B/s): a window of back-to-back sends closed by a 1-byte ack; geometric mean over the workload's bandwidth cells"},
	{Name: "msg_rate_kps", Unit: "kmsg/s", Better: "higher", Bound: 0.25,
		Moves: "thousand messages per second in a 64-message pipelined window, half the receives pre-posted and half posted late"},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Extra: true,
		Moves: "training-loop steps per second; train-step only"},
}

// perLayer lists the metrics of single layers, all taken by the traced run.
var perLayer = []metricDef{
	{Name: "fabric.raw_rtt_ns", Unit: "ns", Better: "lower", Moves: "lat_us_p50 on eager-small, shm-pingpong, tcp-pingpong"},
	{Name: "fabric.raw_get_gbps", Unit: "GB/s", Better: "higher", Moves: "bw_mbps on regions-large and the launched workloads"},
	{Name: "fabric.send_ns_per_op", Unit: "ns", Better: "lower", Moves: "lat_us_p50 on eager-small, shm-pingpong, tcp-pingpong"},
	{Name: "fabric.get_ns_per_mb", Unit: "ns/MB", Better: "lower", Moves: "bw_mbps on regions-large and the launched workloads"},
	{Name: "fabric.recv_wait_ns_per_op", Unit: "ns", Better: "lower", Moves: "waiting, not work: lat_us_p50 on the launched workloads"},
	{Name: "fabric.sends_per_op", Unit: "count", Better: "lower", Moves: "msg_rate_kps on eager-small"},
	{Name: "fabric.gets_per_op", Unit: "count", Better: "lower", Moves: "bw_mbps on regions-large"},
	{Name: "fabric.staged_bytes_per_payload_byte", Unit: "ratio", Better: "lower", Moves: "bw_mbps on pack-large and shm-pingpong, not on regions-large"},
	{Name: "fabric.pulled_bytes_per_payload_byte", Unit: "ratio", Better: "lower", Moves: "bw_mbps on regions-large and the launched workloads"},
	{Name: "fabric.errors_per_kop", Unit: "count", Better: "lower", Moves: "failed ops everywhere; expected 0"},
	{Name: "fabric.fast_rtt_share", Unit: "ratio", Better: "higher", Moves: "lat_us_p50 on shm-pingpong only"},

	{Name: "ucp.self_ns_per_op", Unit: "ns", Better: "lower", Moves: "lat_us_p50, msg_rate_kps on eager-small"},
	{Name: "ucp.allocs_per_op", Unit: "count", Better: "lower", Moves: "lat_us_p50, msg_rate_kps on eager-small"},
	{Name: "ucp.eager_share", Unit: "ratio", Better: "higher", Moves: "protocol mix: msg_rate_kps on eager-small"},
	{Name: "ucp.rndv_share", Unit: "ratio", Better: "higher", Moves: "protocol mix: bw_mbps on regions-large"},
	{Name: "ucp.frags_per_op", Unit: "count", Better: "lower", Moves: "bw_mbps on pack-large below the rendezvous switch"},
	{Name: "ucp.unexpected_share", Unit: "ratio", Better: "lower", Moves: "msg_rate_kps on eager-small"},
	{Name: "ucp.striped_pull_share", Unit: "ratio", Better: "higher", Moves: "bw_mbps on regions-large"},
	{Name: "ucp.stripe_segs_per_pull", Unit: "count", Better: "lower", Moves: "bw_mbps on regions-large"},
	{Name: "ucp.acks_per_op", Unit: "count", Better: "lower", Moves: "lat_us_p50 on the launched workloads (acked eager)"},
	{Name: "ucp.retransmits_per_kop", Unit: "count", Better: "lower", Moves: "must be 0 in-process; lat_us_p50 on the launched workloads"},

	{Name: "core.self_ns_per_op", Unit: "ns", Better: "lower", Moves: "lat_us_p50 on eager-small"},
	{Name: "core.allocs_per_op", Unit: "count", Better: "lower", Moves: "lat_us_p50 on eager-small"},
	{Name: "core.cb_pack_ns_per_mb", Unit: "ns/MB", Better: "lower", Moves: "send side: bw_mbps on pack-large, not regions-large"},
	{Name: "core.cb_unpack_ns_per_mb", Unit: "ns/MB", Better: "lower", Moves: "receive side: bw_mbps on pack-large, not regions-large"},
	{Name: "core.cb_regions_send_ns_per_op", Unit: "ns", Better: "lower", Moves: "send side: bw_mbps on regions-large"},
	{Name: "core.cb_regions_recv_ns_per_op", Unit: "ns", Better: "lower", Moves: "receive side: bw_mbps on regions-large"},
	{Name: "core.cb_calls_per_op", Unit: "count", Better: "lower", Moves: "bw_mbps on pack-large"},
	{Name: "core.regions_per_op", Unit: "count", Better: "lower", Moves: "bw_mbps on regions-large"},
	{Name: "core.packed_share", Unit: "ratio", Better: "lower", Moves: ">= 0.9 on pack-large custom cells, <= 0.1 on regions-large custom cells"},
	{Name: "core.auto_vs_best_min", Unit: "ratio", Better: "higher", Moves: "ROADMAP item 3 gate: bw_mbps on pack-large and regions-large"},

	{Name: "ddt.pack_gbps", Unit: "GB/s", Better: "higher", Moves: "bw_mbps on pack-large"},
	{Name: "ddt.unpack_gbps", Unit: "GB/s", Better: "higher", Moves: "bw_mbps on pack-large"},
	{Name: "ddt.regions_ns_per_region", Unit: "ns", Better: "lower", Moves: "bw_mbps on regions-large"},
	{Name: "ddt.commit_us", Unit: "us", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "ddt.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "setup_s everywhere"},
	{Name: "derive.typeof_ns", Unit: "ns", Better: "lower", Moves: "lat_us_p50 on the derive cells of eager-small"},

	{Name: "serial.encode_ns_per_mb", Unit: "ns/MB", Better: "lower", Moves: "bw_mbps, lat_us_p50 on pickle-objects only"},
	{Name: "serial.decode_ns_per_mb", Unit: "ns/MB", Better: "lower", Moves: "bw_mbps, lat_us_p50 on pickle-objects only"},
	{Name: "serial.allocs_per_op", Unit: "count", Better: "lower", Moves: "lat_us_p50 on pickle-objects only"},
	{Name: "serial.oob_share", Unit: "ratio", Better: "higher", Moves: "bw_mbps on pickle-objects only"},
	{Name: "serial.msgs_per_object", Unit: "count", Better: "lower", Moves: "lat_us_p50 on pickle-objects only"},

	{Name: "mpi.self_ns_per_op", Unit: "ns", Better: "lower", Moves: "lat_us_p50 on eager-small derive vs ddt cells; the bar is about 0"},
	{Name: "mpi.allocs_per_op", Unit: "count", Better: "lower", Moves: "lat_us_p50 on eager-small derive vs ddt cells; the bar is 0"},

	{Name: "launch.spawn_to_ready_s", Unit: "s", Better: "lower", Moves: "setup_s on shm-pingpong, tcp-pingpong"},

	{Name: "proc.goroutines_per_rank", Unit: "count", Better: "lower", Moves: "should fall under ROADMAP item 4 while end-to-end holds"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower", Moves: "should fall under ROADMAP item 4 while end-to-end holds"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower", Moves: "should fall under ROADMAP item 4 while end-to-end holds"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Moves: "should fall under ROADMAP item 4 while end-to-end holds"},

	{Name: "tail.lat_us_p99", Unit: "us", Better: "lower", Moves: "reading aid: too unsteady to gate on"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "reading aid: traced vs untraced lat_us_p50"},
	{Name: "bench.samples", Unit: "count", Better: "higher", Moves: "reading aid: timed samples behind the traced run"},
}

// Transports a workload's world can run over.
const (
	transportInproc = "inproc"
	transportSHM    = "shm"
	transportTCP    = "tcp"
)

// workloadDef is one named workload: where it runs and which cells it times.
type workloadDef struct {
	Name      string
	Why       string
	Ranks     int
	Transport string
	// Procs is the workload's GOMAXPROCS; 0 is nproc.
	Procs int
	// Extra marks a workload that BENCHMARK.json does not list: it runs by
	// name and under -workload all, and the driver's sets of runs leave it
	// out. The driver's time limit fits 22 runs each of four workloads at
	// 28 s or of seven at 14 s, and at 14 s the shared host's slow spells
	// outlast a run (README, "Steadiness").
	Extra bool
	// Note is printed with the result (loopback, oversubscription).
	Note string
	// LadderBytes is the payload size the layer ladder round-trips.
	LadderBytes int
	// Items builds the workload's measurement list.
	Items func() []item
}

var workloadDefs = []workloadDef{
	{
		Name:      "eager-small",
		Why:       "64 B to 8 KiB in-process: per-message cost in mpi, core and ucp is all there is, pack kernels and fabric bandwidth do almost nothing",
		Ranks:     2,
		Transport: transportInproc,
		// One thread: what is timed is the length of the software path. On two,
		// every message is a wake-up across cores, which costs 1.3 to 1.4 times more
		// while the host is in one of its slow spells (README, "Steadiness").
		Procs:       1,
		Note:        "GOMAXPROCS 1: both ranks share one thread",
		LadderBytes: 1 << 10,
		Items:       eagerSmallItems,
	},
	{
		Name:        "pack-large",
		Why:         "256 KiB and 4 MiB in-process where every payload byte passes a pack kernel or callback: ddt plans and core's generic pack path do the work",
		Ranks:       2,
		Transport:   transportInproc,
		LadderBytes: 256 << 10,
		Items:       packLargeItems,
	},
	{
		Name:        "regions-large",
		Why:         "the same sizes riding memory regions through rendezvous Get: ucp striping and fabric iovec handling do the work, pack kernels none",
		Ranks:       2,
		Transport:   transportInproc,
		LadderBytes: 256 << 10,
		Items:       regionsLargeItems,
	},
	{
		Name:        "pickle-objects",
		Why:         "serialized NDArray and complex objects as basic, oob and oob-cdt: the only workload where serial encode, decode and receive allocation are not idle",
		Ranks:       2,
		Transport:   transportInproc,
		LadderBytes: 256 << 10,
		Extra:       true,
		Items:       pickleItems,
	},
	{
		Name:        "shm-pingpong",
		Why:         "two launched processes over the SHM provider: rings, pollLoop and pull windows are the whole cost; ROADMAP item 2 claims here",
		Ranks:       2,
		Transport:   transportSHM,
		LadderBytes: 64,
		Items:       xprocItems,
	},
	{
		Name:        "tcp-pingpong",
		Why:         "the same cells over TCP loopback: shares the stream core and launcher with SHM but none of the ring code, so it is the control for item 2",
		Ranks:       2,
		Transport:   transportTCP,
		Note:        "traffic crossed the host's loopback interface, not a link",
		LadderBytes: 64,
		Extra:       true,
		Items:       xprocItems,
	},
	{
		Name:        "train-step",
		Why:         "4 ranks on 2 cores running persistent Allreduce plus strided-ddt halo: a p2p win must survive being one of many parallel parts",
		Ranks:       4,
		Transport:   transportInproc,
		Note:        "oversubscribed: 4 ranks on nproc cores",
		LadderBytes: 32 << 10,
		Extra:       true,
		Items:       trainStepItems,
	},
}

// procs is the workload's GOMAXPROCS.
func (w *workloadDef) procs() int {
	if w.Procs > 0 {
		return w.Procs
	}
	return runtime.NumCPU()
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}
