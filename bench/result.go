package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// schemaVersion names the result format; -compare refuses to mix versions.
const schemaVersion = "mpicd-bench/1"

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cellResult is everything measured for one item of a workload.
type cellResult struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Metric string `json:"metric"`
	Unit   string `json:"unit"`
	Method string `json:"method,omitempty"`
	Shape  string `json:"shape,omitempty"`
	Bytes  int64  `json:"payload_bytes,omitempty"`
	Window int    `json:"window"`
	// Value is the best of the trial medians (see summarize); Median, Q1 and
	// Q3 are their median and quartiles.
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// P99 is the pooled 99th percentile of latency samples, in us.
	P99     float64   `json:"p99_us,omitempty"`
	Samples int       `json:"samples"`
	Ops     int64     `json:"ops"`
	Trials  []float64 `json:"trial_medians"`
	// WorkingSet is the memory both sides rotate over for this cell.
	WorkingSet int64      `json:"working_set_bytes,omitempty"`
	Trace      *cellTrace `json:"trace,omitempty"`
}

// rawResult is what rank 0 of a world hands back: cells and tallies, before
// set-up times and metrics are folded in.
type rawResult struct {
	Cells       []cellResult       `json:"cells"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FirstFail   string             `json:"first_fail,omitempty"`
	ReadyUnixNS int64              `json:"ready_unix_ns"`
	WorldUnixNS int64              `json:"world_unix_ns"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Ladder      []ladderRung       `json:"ladder,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Notes     []string `json:"notes,omitempty"`
	Transport string   `json:"transport"`
	Ranks     int      `json:"ranks"`
	Loop      string   `json:"loop"`
	Procs     int      `json:"gomaxprocs"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	WallS     float64  `json:"wall_s"`
	// Worlds x Trials trial medians stand behind every cell, and Statistic
	// says how they become the cell's value. -compare refuses two results
	// that differ in any of them, or in Seconds.
	Worlds    int    `json:"worlds"`
	Trials    int    `json:"trials_per_world"`
	Statistic string `json:"statistic"`

	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	FirstFail string  `json:"first_fail,omitempty"`
	FailRatio float64 `json:"fail_ratio"`

	Metrics map[string]metricValue `json:"metrics"`
	SetupsS []float64              `json:"setups_s"`
	// Spread is what the run's own trials say about each end-to-end metric.
	Spread map[string]metricSpread `json:"spread,omitempty"`

	WorkingSetBytes int64        `json:"working_set_bytes"`
	Cells           []cellResult `json:"cells"`
	Ladder          []ladderRung `json:"ladder,omitempty"`

	spans []span // written by -trace <path>, not into the result file
}

// resultFile is what -out writes.
type resultFile struct {
	Schema    string           `json:"schema"`
	Host      hostFacts        `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

// ---------------------------------------------------------------------------
// from samples to cells to metrics

// sampleValue converts one timed sample of an item into its metric's unit.
func sampleValue(it item, ns float64) float64 {
	switch it.Kind {
	case opLat:
		return ns / 2 / 1e3 // half the round trip, us
	case opBw:
		return float64(it.Window) * float64(it.Cell.Bytes) / ns * 1e3 // MB/s
	case opRate:
		return float64(it.Window) / ns * 1e6 // kmsg/s
	default:
		return 1e9 / ns // steps per second
	}
}

func unitOf(metric string) string {
	for _, m := range endToEnd {
		if m.Name == metric {
			return m.Unit
		}
	}
	return ""
}

// cellResults folds the driver's samples into one cellResult per item.
func cellResults(d *driver) []cellResult {
	var out []cellResult
	for i, it := range d.p.items {
		st := d.stats[i]
		cr := cellResult{Kind: it.Kind.String(), Metric: it.Kind.metric(), Window: it.Window, Ops: st.ops}
		cr.Unit = unitOf(cr.Metric)
		if it.Cell != nil {
			cr.Name, cr.Method, cr.Shape, cr.Bytes = it.Cell.Name, it.Cell.Method, it.Cell.Shape, it.Cell.Bytes
			cr.WorkingSet = 2 * int64(it.Cell.Slots) * it.Cell.Image
		} else {
			cr.Name = "training-loop"
		}
		var pooled []int64
		for _, tr := range st.trials {
			if len(tr) == 0 {
				continue
			}
			cr.Trials = append(cr.Trials, sampleValue(it, medianInt64(tr)))
			cr.Samples += len(tr)
			if it.Kind == opLat {
				pooled = append(pooled, tr...)
			}
		}
		for _, tr := range st.trainSt {
			cr.Trials = append(cr.Trials, float64(tr[0])/float64(tr[1])*1e9)
			cr.Samples++
		}
		cr.summarize()
		cr.P99 = quantileInt64(pooled, 0.99) / 2 / 1e3
		if d.p.hooks != nil {
			cr.Trace = d.p.hooks.cellTrace(i)
		}
		out = append(out, cr)
	}
	return out
}

// cellStatistic names how summarize turns trial medians into a cell's value.
const cellStatistic = "best trial median per cell (least latency, most throughput), geometric mean over cells"

// summarize sets a cell's value from its trial medians. The value is the
// best trial: the least latency, the most throughput. The issue asked for
// the median trial; the baseline host does not hold still for it. It is a
// shared 2-vCPU guest that spends seconds to minutes in a state where
// whatever crosses cores runs 1.5 to 1.8 times slower (a bare two-goroutine
// channel ping-pong reads 360 or 530 ns), for a share of the time that drifts
// between none and most. Nothing speeds a trial up, and a trial is itself the
// median of tens to thousands of ops: the best trial is the cell in the
// host's quiet state, the median trial the cell in whatever mix of states the
// run met. README, "Steadiness", has both statistics over four sweeps.
//
// What the best trial cannot see is a change that makes a slow mode of the
// stack itself more frequent and leaves the fast one alone. The median, the
// quartiles and every trial median are kept beside the value for that, and
// -compare prints the ratio of the medians next to the ratio of the values.
func (c *cellResult) summarize() {
	s := sortedCopy(c.Trials)
	c.Median, c.Q1, c.Q3 = quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
	switch {
	case len(s) == 0:
		c.Value = 0
	case c.Metric == "lat_us_p50":
		c.Value = s[0]
	default:
		c.Value = s[len(s)-1]
	}
}

// metricSpread is what one run knows about the steadiness of one of its
// end-to-end metrics.
type metricSpread struct {
	// Median, Q1 and Q3 are the geometric means, over the cells that feed
	// the metric, of the median and the quartiles of each cell's trial
	// medians; for setup_s, of the run's set-ups.
	Median float64 `json:"median_of_trials"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Rel is the quartile distance as a share of the median, taken per cell
	// and combined as a root mean square over n: independent cell noise
	// averages out of a geometric mean that way.
	Rel float64 `json:"rel"`
}

func spreadsOf(cells []cellResult, setups []float64) map[string]metricSpread {
	out := map[string]metricSpread{}
	for _, def := range endToEnd {
		if def.Name == "setup_s" {
			s := sortedCopy(setups)
			sp := metricSpread{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
			if sp.Median > 0 {
				sp.Rel = (sp.Q3 - sp.Q1) / sp.Median
			}
			out[def.Name] = sp
			continue
		}
		var med, q1, q3 []float64
		var sum float64
		for _, c := range cells {
			if c.Metric != def.Name || c.Median <= 0 {
				continue
			}
			med, q1, q3 = append(med, c.Median), append(q1, c.Q1), append(q3, c.Q3)
			d := (c.Q3 - c.Q1) / c.Median
			sum += d * d
		}
		if len(med) == 0 {
			continue
		}
		out[def.Name] = metricSpread{Median: geomeanF(med), Q1: geomeanF(q1), Q3: geomeanF(q3),
			Rel: math.Sqrt(sum) / float64(len(med))}
	}
	return out
}

// geomean of the values of the cells feeding metric; 0 when there are none.
func geomean(cells []cellResult, metric string) float64 {
	var vals []float64
	for _, c := range cells {
		if c.Metric == metric {
			vals = append(vals, c.Value)
		}
	}
	return geomeanF(vals)
}

// geomeanF is the geometric mean of the positive values; 0 without any.
func geomeanF(v []float64) float64 {
	var sum float64
	n := 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// endToEndMetrics computes the untraced run's metrics from cells and
// set-up times: setup_s, and every metric the workload has cells for.
func endToEndMetrics(cells []cellResult, setups []float64) map[string]metricValue {
	m := map[string]metricValue{}
	for _, def := range endToEnd {
		v := geomean(cells, def.Name)
		if def.Name == "setup_s" {
			v = median(setups)
		}
		if v > 0 {
			m[def.Name] = metricValue{Value: v, Unit: def.Unit}
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// printing

// finalLine is the one JSON object the driver reads from the last line.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s  (%s, %d ranks, %s, seed %d, %.1fs measured, %.1fs wall)\n",
		r.Workload, r.Transport, r.Ranks, r.Loop, r.Seed, r.Seconds, r.WallS)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "   %-40s %14.6f (%d failed of %d attempted)\n", "fail_ratio", r.FailRatio, r.Failed, r.Attempted)
	if r.FirstFail != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstFail)
	}
	if len(r.Cells) > 0 {
		fmt.Fprintf(w, "   %-46s %-5s %12s %12s %12s %12s %8s\n", "cell", "kind", "best", "median", "q1", "q3", "samples")
	}
	for _, c := range r.Cells {
		fmt.Fprintf(w, "   %-46s %-5s %12.3f %12.3f %12.3f %12.3f %8d %s\n", c.Name, c.Kind, c.Value, c.Median, c.Q1, c.Q3, c.Samples, c.Unit)
	}
	for _, l := range r.Ladder {
		fmt.Fprintf(w, "   ladder %-28s %10.0f ns one-way  self %9.0f ns  %6.2f allocs/op  %8.0f B copied/op\n",
			l.Rung, l.OneWayNS, l.SelfNS, l.AllocsPerOp, l.CopiedPerOp)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, this binary reads %q", path, rf.Schema, schemaVersion)
	}
	return &rf, nil
}

// ---------------------------------------------------------------------------
// -compare

// verdict compares b against base a for one metric. spread is the wider of
// the two runs' own relative spreads.
func verdict(def metricDef, a, b, spread float64) (ratio float64, word string) {
	if a == 0 {
		return 0, "no base"
	}
	ratio = b / a
	change := ratio - 1
	if def.Better == "lower" {
		change = -change
	}
	bound := def.Bound
	if bound == 0 {
		bound = 0.10
	}
	switch {
	case spread > bound:
		return ratio, "unresolved"
	case change < -bound:
		return ratio, "worse"
	case change > bound:
		return ratio, "better"
	}
	return ratio, "same"
}

// compareFiles prints one row per (end-to-end metric, workload), then the
// per-layer rows, and reports whether any end-to-end row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base A = %s (rev %s, seed %d)\n     B = %s (rev %s, seed %d)\n", pathA, a.Host.GitRev, seedOf(a), pathB, b.Host.GitRev, seedOf(b))
	fmt.Fprintf(w, "value: %s\nmedian q1..q3: the same over each cell's median trial and quartile trials\nB/A: ratio of the values, A is the base; med B/A: ratio of the medians\n\n", cellStatistic)
	fmt.Fprintf(w, "%-16s %-34s %11s %24s %11s %24s %7s %8s %6s  %s\n",
		"workload", "metric", "A", "A median q1..q3", "B", "B median q1..q3", "B/A", "med B/A", "bound", "verdict")
	row := func(wl string, def metricDef, ra, rb *workloadResult) {
		va, vb := ra.Metrics[def.Name], rb.Metrics[def.Name]
		sa, sb := ra.Spread[def.Name], rb.Spread[def.Name]
		ratio, word := verdict(def, va.Value, vb.Value, math.Max(sa.Rel, sb.Rel))
		if word == "worse" && def.Bound > 0 {
			worse = true
		}
		bound, medRatio := "-", "-"
		if def.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", def.Bound*100)
		}
		if sa.Median > 0 {
			medRatio = fmt.Sprintf("%.3f", sb.Median/sa.Median)
		}
		quart := func(s metricSpread) string {
			if s.Median == 0 {
				return "-"
			}
			return fmt.Sprintf("%.4g %.4g..%.4g", s.Median, s.Q1, s.Q3)
		}
		fmt.Fprintf(w, "%-16s %-34s %11.4g %24s %11.4g %24s %7.3f %8s %6s  %s\n",
			wl, def.Name+" ("+va.Unit+")", va.Value, quart(sa), vb.Value, quart(sb), ratio, medRatio, bound, word)
	}
	for _, traced := range []bool{false, true} {
		for i := range a.Workloads {
			ra := &a.Workloads[i]
			rb := findResult(b, ra.Workload, ra.Traced)
			if rb == nil || ra.Traced != traced {
				continue
			}
			if ra.Seconds != rb.Seconds || ra.Worlds != rb.Worlds || ra.Trials != rb.Trials || ra.Statistic != rb.Statistic {
				return false, fmt.Errorf("%s: A took %gs in %d worlds x %d trials (%s), B %gs in %d x %d (%s): the numbers were not formed the same way",
					ra.Workload, ra.Seconds, ra.Worlds, ra.Trials, ra.Statistic, rb.Seconds, rb.Worlds, rb.Trials, rb.Statistic)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, def := range defs {
				if _, ok := ra.Metrics[def.Name]; !ok {
					continue
				}
				row(ra.Workload, def, ra, rb)
			}
		}
		if !traced {
			fmt.Fprintln(w, strings.Repeat("-", 160))
		}
	}
	return worse, nil
}

func seedOf(rf *resultFile) int64 {
	if len(rf.Workloads) == 0 {
		return 0
	}
	return rf.Workloads[0].Seed
}

func findResult(rf *resultFile, name string, traced bool) *workloadResult {
	for i := range rf.Workloads {
		if rf.Workloads[i].Workload == name && rf.Workloads[i].Traced == traced {
			return &rf.Workloads[i]
		}
	}
	return nil
}
