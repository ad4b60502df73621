// Command bench is the repository's one benchmark: seven named workloads
// (BENCHMARK.json lists four), four end-to-end metrics reported by every one
// of them, and a per-layer cost ladder taken by a separate traced run. See
// README.md.
//
//	bash bench/run.sh -workload all -seed 1 -out results.json
//	bash bench/run.sh -workload pack-large -trace trace.json
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -selfcheck
//
// The driver's form is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object with the run's
// verdict and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "seed of buffer fill patterns and cell interleaving")
		seconds   = flag.Float64("seconds", 28, "seconds of measurement per workload")
		trace     = flag.String("trace", "0", "0: end-to-end metrics; 1: the traced run and per-layer metrics; a path: traced, and spans are written there")
		out       = flag.String("out", "", "write the full result (header, metrics, cells) to this file")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments: base first")
		selfcheck = flag.Bool("selfcheck", false, "run twice with different seeds and fail if an end-to-end metric differs by more than its bound")
		flip      = flag.String("flip", "", "flip one byte of the expected image of this cell (the run must fail)")
		worker    = flag.String("worker", "", "internal: run as a launched rank with this configuration")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json as spec.go defines it, and exit")
	)
	flag.Parse()
	// Two ranks of an in-process world, or one launched rank and its
	// progress goroutines, keep at most nproc threads busy.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *worker != "" {
		if err := workerMain(*worker); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			return 1
		}
		return 0
	}
	if *spec {
		fmt.Println(benchmarkSpec(int(*seconds)))
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files: base first")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	var defs []*workloadDef
	if *workload == "all" {
		for i := range workloadDefs {
			defs = append(defs, &workloadDefs[i])
		}
	} else if def := findWorkload(*workload); def != nil {
		defs = append(defs, def)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runCfg{Seed: *seed, Seconds: *seconds, Worlds: worldsPerRun, FlipAt: *flip}
	traceOut := ""
	switch *trace {
	case "0", "":
	case "1":
		cfg.Traced = true
	default:
		cfg.Traced, traceOut = true, *trace
	}
	if cfg.Traced {
		cfg.Worlds = 1
	}
	if *selfcheck {
		return selfCheck(defs, cfg)
	}

	rf, ok, err := runSuite(defs, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if traceOut != "" {
		tf := traceFile{Schema: schemaVersion}
		for i := range rf.Workloads {
			tf.Traces = append(tf.Traces, workloadTrace{Workload: rf.Workloads[i].Workload, Seed: cfg.Seed, Spans: rf.Workloads[i].spans})
		}
		if err := writeJSON(traceOut, tf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	printFinal(rf)
	if !ok {
		return 1
	}
	return 0
}

// runSuite runs the workloads in order and prints each as it finishes.
func runSuite(defs []*workloadDef, cfg runCfg) (*resultFile, bool, error) {
	rf := &resultFile{Schema: schemaVersion, Host: gatherHostFacts()}
	ok := true
	for _, def := range defs {
		res, err := runWorkload(def, cfg)
		if err != nil {
			return nil, false, err
		}
		printWorkload(os.Stdout, res)
		ok = ok && res.Correct
		rf.Workloads = append(rf.Workloads, *res)
	}
	return rf, ok, nil
}

// printFinal writes the driver's line: one workload's metrics by name, or,
// for several workloads, each metric prefixed with its workload. The line
// holds the metrics of BENCHMARK.json and no others.
func printFinal(rf *resultFile) {
	extra := map[string]bool{}
	for _, def := range endToEnd {
		extra[def.Name] = def.Extra
	}
	line := finalLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range rf.Workloads {
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for name, v := range w.Metrics {
			if extra[name] {
				continue
			}
			if len(rf.Workloads) > 1 {
				name = w.Workload + ":" + name
			}
			line.Metrics[name] = v
		}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

// selfCheck runs the workloads twice on this binary with two seeds and
// holds every end-to-end pair to its bound.
func selfCheck(defs []*workloadDef, cfg runCfg) int {
	cfg.Traced = false
	a, okA, err := runSuite(defs, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg.Seed++
	b, okB, err := runSuite(defs, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("\nselfcheck: seed %d vs seed %d, same binary\n", cfg.Seed-1, cfg.Seed)
	fmt.Printf("%-16s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "apart", "bound", "")
	pass := okA && okB
	for i := range a.Workloads {
		wa, wb := &a.Workloads[i], &b.Workloads[i]
		for _, def := range endToEnd {
			if _, ok := wa.Metrics[def.Name]; !ok {
				continue
			}
			va, vb := wa.Metrics[def.Name].Value, wb.Metrics[def.Name].Value
			apart := math.Abs(vb-va) / math.Min(va, vb)
			word := "ok"
			if !(apart <= def.Bound) {
				word, pass = "APART", false
			}
			fmt.Printf("%-16s %-14s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n", wa.Workload, def.Name, va, vb, apart*100, def.Bound*100, word)
		}
	}
	if !pass {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: passed")
	return 0
}

// benchmarkSpec renders spec.go in the shape of BENCHMARK.json, so the file
// at the repository root is generated, not kept in step by hand:
//
//	bash bench/run.sh -spec > BENCHMARK.json
func benchmarkSpec(runSeconds int) string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		if !w.Extra {
			out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, m := range endToEnd {
		if !m.Extra {
			out.EndToEnd = append(out.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	return string(b)
}
