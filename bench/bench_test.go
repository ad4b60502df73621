package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpicd/internal/launch"
)

// The launched workloads re-execute this binary as their ranks; under
// `go test` that binary is the test binary, so it has to play the worker.
func TestMain(m *testing.M) {
	if launch.IsWorker() {
		for i, a := range os.Args {
			if a == "-worker" && i+1 < len(os.Args) {
				if err := workerMain(os.Args[i+1]); err != nil {
					fmt.Fprintln(os.Stderr, "bench worker:", err)
					os.Exit(1)
				}
				os.Exit(0)
			}
		}
		fmt.Fprintln(os.Stderr, "bench worker: no -worker argument")
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the contract's file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json and spec.go together,
// and both to the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bj := readBenchmarkJSON(t)
	// BENCHMARK.json leaves out what spec.go marks as extra.
	var listed []workloadDef
	for _, w := range workloadDefs {
		if !w.Extra {
			listed = append(listed, w)
		}
	}
	endToEnd := listedMetrics()
	if len(bj.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(listed))
	}
	for i, w := range bj.Workloads {
		def := listed[i]
		if w.Name != def.Name || w.Why != def.Why {
			t.Errorf("workload %d: BENCHMARK.json has (%q, %q), spec.go (%q, %q)", i, w.Name, w.Why, def.Name, def.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the name or why limits", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: end-to-end %d vs %d, per-layer %d vs %d",
			len(bj.EndToEnd), len(endToEnd), len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	sawSetup := false
	for i, m := range bj.EndToEnd {
		def := endToEnd[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, m, def)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end-to-end %q breaks the contract's limits", m.Name)
		}
		seen[m.Name] = true
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bj.PerLayer {
		def := perLayer[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, m, def)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q breaks the contract's limits", m.Name)
		}
		seen[m.Name] = true
	}
	if len(bj.PerLayer) > 128 || len(bj.EndToEnd) > 16 || len(bj.Workloads) > 8 || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Error("BENCHMARK.json exceeds the contract's counts")
	}
	for _, p := range bj.Paths {
		if p != "bench" {
			t.Errorf("unexpected path %q", p)
		}
	}
}

// listedMetrics are the end-to-end metrics BENCHMARK.json lists.
func listedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Extra {
			out = append(out, m)
		}
	}
	return out
}

// smokeCfg is a run short enough for a test: one world, two trials.
func smokeCfg(traced bool) runCfg {
	return runCfg{Seed: 7, Seconds: 0.25, Worlds: 1, Traced: traced}
}

func checkRun(t *testing.T, res *workloadResult, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.FailRatio != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", res.Workload, res.Correct, res.Attempted, res.Failed, res.FirstFail)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, def.Name)
			continue
		}
		if v.Unit != def.Unit {
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, def.Name, v.Unit, def.Unit)
		}
		if nonZero && !(v.Value > 0) {
			t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", res.Workload, def.Name, v.Value)
		}
	}
}

// noLeftovers fails if a launched world left a session directory behind.
func noLeftovers(t *testing.T) {
	t.Helper()
	left, _ := filepath.Glob(filepath.Join(".bench_build", "s", "*"))
	if len(left) > 0 {
		t.Errorf("session directories left behind: %v", left)
	}
}

// TestSmoke runs every workload both ways on a tiny budget: every metric
// BENCHMARK.json names is emitted, nothing fails, the launched workers start
// and exit cleanly, and the workloads separate the layers the way they were
// chosen to.
func TestSmoke(t *testing.T) {
	layers := map[string]map[string]metricValue{}
	for i := range workloadDefs {
		def := &workloadDefs[i]
		t.Run(def.Name, func(t *testing.T) {
			res, err := runWorkload(def, smokeCfg(false))
			if err != nil {
				t.Fatal(err)
			}
			want := listedMetrics()
			if def.Name == "train-step" {
				want = endToEnd // steps_per_s too
			}
			checkRun(t, res, want, true)
			if res.WorkingSetBytes == 0 || len(res.Cells) == 0 {
				t.Errorf("no cells or working set recorded")
			}
			traced, err := runWorkload(def, smokeCfg(true))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, traced, perLayer, false)
			layers[def.Name] = traced.Metrics
			if len(traced.spans) == 0 {
				t.Error("traced run kept no spans")
			}
			linked := false
			for _, s := range traced.spans {
				linked = linked || s.Parent != 0
			}
			if !linked {
				t.Error("no span names a parent")
			}
			// Self costs are differences of adjacent rungs, so they sum to
			// the top rung by construction; what can go wrong is a rung that
			// was not measured.
			if len(traced.Ladder) != 4 {
				t.Fatalf("ladder has %d rungs, want 4", len(traced.Ladder))
			}
			for _, r := range traced.Ladder {
				if r.Samples == 0 || !(r.OneWayNS > 0) {
					t.Errorf("ladder rung %s: %d samples, %.0f ns one way", r.Rung, r.Samples, r.OneWayNS)
				}
			}
			noLeftovers(t)
		})
	}

	// Bytes go through pack callbacks on pack-large and through regions on
	// regions-large; serial is idle everywhere but pickle-objects.
	// (A -run filter may have left some workloads out.)
	if m, ok := layers["pack-large"]; ok && m["core.packed_share"].Value < 0.9 {
		t.Errorf("pack-large core.packed_share = %.3f, want >= 0.9", m["core.packed_share"].Value)
	}
	if m, ok := layers["regions-large"]; ok && m["core.packed_share"].Value > 0.1 {
		t.Errorf("regions-large core.packed_share = %.3f, want <= 0.1", m["core.packed_share"].Value)
	}
	for name, m := range layers {
		for _, metric := range []string{"serial.encode_ns_per_mb", "serial.decode_ns_per_mb", "serial.msgs_per_object"} {
			if v := m[metric].Value; (name == "pickle-objects") != (v > 0) {
				t.Errorf("%s: %s = %v", name, metric, v)
			}
		}
	}
}

// TestFlippedByteFailsTheRun shows verification has teeth: one byte of one
// expected image flipped, and the run is incorrect.
func TestFlippedByteFailsTheRun(t *testing.T) {
	for _, tc := range []struct{ workload, cell string }{
		{"eager-small", "ddt/struct-simple/1KiB"},
		{"pickle-objects", "oob-cdt/ndarray/256KiB"},
	} {
		cfg := smokeCfg(false)
		cfg.FlipAt = tc.cell
		res, err := runWorkload(findWorkload(tc.workload), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.FailRatio == 0 {
			t.Errorf("%s with %s flipped: correct=%v failed=%d, want a failed run", tc.workload, tc.cell, res.Correct, res.Failed)
		}
	}
}

// TestCompareStatesBaseAndVerdict writes two results and reads the diff.
func TestCompareStatesBaseAndVerdict(t *testing.T) {
	mk := func(lat float64) resultFile {
		cells := []cellResult{{Name: "c", Metric: "lat_us_p50", Trials: []float64{lat, lat * 1.01, lat * 1.02}}}
		cells[0].summarize()
		setups := []float64{0.1, 0.1, 0.1}
		w := workloadResult{Workload: "eager-small", Correct: true, Attempted: 1, Seconds: 28, Worlds: worldsPerRun,
			Trials: 4, Statistic: cellStatistic, SetupsS: setups,
			Metrics: endToEndMetrics(cells, setups), Spread: spreadsOf(cells, setups), Cells: cells}
		return resultFile{Schema: schemaVersion, Workloads: []workloadResult{w}}
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, mk(2.0)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, mk(3.0)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !worse || !strings.Contains(text, "base A") || !strings.Contains(text, "worse") || !strings.Contains(text, "1.500") {
		t.Errorf("compare output lacks base, ratio or verdict (worse=%v):\n%s", worse, text)
	}
	out.Reset()
	if worse, _ := compareFiles(&out, a, a); worse || !strings.Contains(out.String(), "same") {
		t.Errorf("a file compared with itself is not the same:\n%s", out.String())
	}
	// Numbers formed another way do not compare.
	short := mk(2.0)
	short.Workloads[0].Seconds = 7
	c := filepath.Join(dir, "c.json")
	if err := writeJSON(c, short); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&out, a, c); err == nil {
		t.Error("a 28 s result compared with a 7 s one without complaint")
	}
}
