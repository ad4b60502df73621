// mpicd-bench regenerates the paper's evaluation figures and tables.
//
// Usage:
//
//	mpicd-bench -fig all            # every figure (slow)
//	mpicd-bench -fig 1              # Figure 1 only
//	mpicd-bench -fig 10 -scale 2    # DDTBench table at scale 2
//	mpicd-bench -fig tableI
//	mpicd-bench -fig 8 -quick       # reduced iterations/sizes
//
// Output is an aligned text table per figure: one row per message size,
// one column per method, "mean ±dev" with the deviation over repeated
// runs (the paper averages 4 runs and shows error bars).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpicd/internal/ddt"
	"mpicd/internal/harness"
	"mpicd/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 1-10, tableI, or all")
	quick := flag.Bool("quick", false, "reduced iterations and size sweep")
	scale := flag.Int("scale", 1, "DDTBench size scale for figure 10")
	runs := flag.Int("runs", 0, "override number of measurement runs")
	stats := flag.String("stats", "", "dump transport metrics as JSON after the run: a file path, or - for stderr")
	traceCap := flag.Int("trace", 0, "with -stats, also keep the last N per-message lifecycle events")
	planCache := flag.Bool("plancache", false, "print datatype plan-cache counters after the run")
	flag.Parse()

	cfg := harness.Full
	if *quick {
		cfg = harness.Quick
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	var observer *obs.Observer
	if *stats != "" {
		observer = obs.New(*traceCap)
		cfg.Opt.Fabric.Obs = observer
	}

	figures := map[string]func() error{
		"1":  func() error { return printFig(harness.Fig1(cfg)) },
		"2":  func() error { return printFig(harness.Fig2(cfg)) },
		"3":  func() error { return printFig(harness.Fig3(cfg)) },
		"4":  func() error { return printFig(harness.Fig4(cfg)) },
		"5":  func() error { return printFig(harness.Fig5(cfg)) },
		"6":  func() error { return printFig(harness.Fig6(cfg)) },
		"7":  func() error { return printFig(harness.Fig7(cfg)) },
		"8":  func() error { return printFig(harness.Fig8(cfg)) },
		"9":  func() error { return printFig(harness.Fig9(cfg)) },
		"10": func() error { return printTable(harness.Fig10(cfg, *scale)) },
		"tableI": func() error {
			harness.TableI().Print(os.Stdout)
			return nil
		},
	}

	var order []string
	switch strings.ToLower(*fig) {
	case "all":
		order = []string{"tableI", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}
	default:
		order = []string{*fig}
	}
	for _, id := range order {
		gen, ok := figures[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want 1-10, tableI, all)\n", id)
			os.Exit(2)
		}
		if err := gen(); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if observer != nil {
		if err := dumpStats(observer, *stats); err != nil {
			fmt.Fprintf(os.Stderr, "stats: %v\n", err)
			os.Exit(1)
		}
	}
	if *planCache {
		hits, misses, compileNS := ddt.PlanCacheStats()
		fmt.Fprintf(os.Stderr, "plan cache: %d hits, %d misses, %d cached plans, %.3fms compiling\n",
			hits, misses, ddt.PlanCacheSize(), float64(compileNS)/1e6)
	}
}

// dumpStats writes the accumulated metrics (and trace, when enabled) to
// dest: a file path, or "-" for stderr so the dump does not interleave
// with the figure tables on stdout.
func dumpStats(o *obs.Observer, dest string) error {
	if dest == "-" {
		return o.WriteJSON(os.Stderr)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := o.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printFig(f *harness.Figure, err error) error {
	if err != nil {
		return err
	}
	f.Print(os.Stdout)
	return nil
}

func printTable(t *harness.Table, err error) error {
	if err != nil {
		return err
	}
	t.Print(os.Stdout)
	return nil
}
