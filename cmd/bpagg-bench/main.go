// Command bpagg-bench regenerates the paper's evaluation (Feng & Lo, ICDE
// 2015, §IV): Figures 5-7 (micro-benchmarks of the aggregation phase),
// Figure 8 (multi-threading speedups) and Table II (TPC-H style queries),
// plus the bpaggd serving A/B ("concurrent-clients") and the differential
// soak ("oracle-soak"). The cross-PR performance trajectory is benchmark/,
// not this command.
//
// Usage:
//
//	bpagg-bench -experiment all
//	bpagg-bench -experiment fig5 -n 16777216
//	bpagg-bench -experiment table2 -threads 8
//	bpagg-bench -json                       # also write BENCH_results.json
//
// Results print as aligned text tables matching the paper's layout; see
// EXPERIMENTS.md for the paper-vs-measured record. With -json, the same
// numbers are additionally written as machine-readable JSON (schema
// bpagg-bench/v1), which CI archives as an artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"bpagg/internal/bench"
	"bpagg/internal/tpch"
)

// runCtx carries everything an experiment body needs beyond the shared
// Config: the optional JSON report (nil-safe Add methods) and the soak
// parameters.
type runCtx struct {
	cfg       bench.Config
	report    *bench.Report
	seed      int64
	soakSeeds int
}

// experimentSpec registers one experiment. The flag help text, the
// unknown-experiment error, and the "all" sequence are all derived from
// this table, so adding an experiment is one entry here.
type experimentSpec struct {
	name  string
	inAll bool // part of "-experiment all"
	run   func(rc runCtx) error
}

var experiments = []experimentSpec{
	{"fig5", true, func(rc runCtx) error {
		rows := bench.Fig5(rc.cfg)
		bench.PrintFig5(os.Stdout, rows)
		rc.report.AddFig5(rows)
		return nil
	}},
	{"fig6", true, func(rc runCtx) error {
		rows := bench.Fig6(rc.cfg)
		bench.PrintFig6(os.Stdout, rows)
		rc.report.AddFig6(rows)
		return nil
	}},
	{"fig7", true, func(rc runCtx) error {
		rows := bench.Fig7(rc.cfg)
		bench.PrintFig7(os.Stdout, rows)
		rc.report.AddFig7(rows)
		return nil
	}},
	{"fig8", true, func(rc runCtx) error {
		rows := bench.Fig8(rc.cfg)
		bench.PrintFig8(os.Stdout, rows, rc.cfg.Threads)
		rc.report.AddFig8(rows)
		return nil
	}},
	{"table2", true, func(rc runCtx) error {
		vrows := bench.Table2(rc.cfg, tpch.VBP)
		bench.PrintTable2(os.Stdout, tpch.VBP, vrows)
		fmt.Println()
		hrows := bench.Table2(rc.cfg, tpch.HBP)
		bench.PrintTable2(os.Stdout, tpch.HBP, hrows)
		rc.report.AddTable2(tpch.VBP, vrows)
		rc.report.AddTable2(tpch.HBP, hrows)
		return nil
	}},
	{"concurrent-clients", true, func(rc runCtx) error {
		rows, err := bench.ConcurrentClients(rc.cfg)
		if err != nil {
			return err
		}
		bench.PrintServer(os.Stdout, rows)
		rc.report.AddServer(rows)
		return nil
	}},
	// Correctness soak, not a benchmark: the Deep differential sweep
	// over [seed, seed+soak-seeds). Excluded from "all".
	{"oracle-soak", false, func(rc runCtx) error {
		if fails := bench.OracleSoak(os.Stdout, rc.seed, rc.soakSeeds); fails > 0 {
			return fmt.Errorf("%d divergences", fails)
		}
		return nil
	}},
}

// experimentNames returns the registered names in table order.
func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func findExperiment(name string) *experimentSpec {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

func main() {
	var (
		experiment = flag.String("experiment", "all",
			strings.Join(append(experimentNames(), "all"), " | "))
		n          = flag.Int("n", 4<<20, "tuples per micro-benchmark column")
		k          = flag.Int("k", 25, "default value width in bits")
		sel        = flag.Float64("sel", 0.1, "default filter selectivity")
		threads    = flag.Int("threads", 4, "worker threads for fig8/table2")
		seed       = flag.Int64("seed", 1, "data generation seed")
		soakSeeds  = flag.Int("soak-seeds", 2, "seeds to run for -experiment oracle-soak")
		minTime    = flag.Duration("mintime", 150*time.Millisecond, "minimum measurement time per data point")
		skipSanity = flag.Bool("skip-sanity", false, "skip the BP-vs-NBP agreement pre-check")
		jsonOut    = flag.Bool("json", false, "also write machine-readable results (see -json-out)")
		jsonPath   = flag.String("json-out", "BENCH_results.json", "output file for -json")
	)
	flag.Parse()

	if *experiment != "all" && findExperiment(*experiment) == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n",
			*experiment, strings.Join(append(experimentNames(), "all"), ", "))
		os.Exit(2)
	}

	cfg := bench.Config{
		N: *n, K: *k, Sel: *sel, Threads: *threads, Seed: *seed, MinTime: *minTime,
	}
	fmt.Printf("bpagg-bench: n=%d k=%d sel=%v threads=%d GOMAXPROCS=%d cpus=%d\n",
		cfg.N, cfg.K, cfg.Sel, cfg.Threads, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if cfg.Threads > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "warning: -threads %d exceeds the %d available CPUs; "+
			"multi-threaded speedups will be contended, not parallel\n",
			cfg.Threads, runtime.NumCPU())
	}
	fmt.Println()

	if *experiment == "oracle-soak" {
		// The soak is itself a (far stronger) BP-vs-reference check.
		*skipSanity = true
	}
	if !*skipSanity {
		if !bench.Sanity(cfg) {
			fmt.Fprintln(os.Stderr, "sanity check failed: BP and NBP disagree; not benchmarking")
			os.Exit(1)
		}
		fmt.Println("sanity: BP and NBP agree on all queries and layouts")
		fmt.Println()
	}

	var report *bench.Report
	if *jsonOut {
		report = bench.NewReport(cfg)
	}
	rc := runCtx{cfg: cfg, report: report, seed: *seed, soakSeeds: *soakSeeds}

	run := func(e *experimentSpec) {
		start := time.Now()
		if err := e.run(rc); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for i := range experiments {
			if experiments[i].inAll {
				run(&experiments[i])
			}
		}
	} else {
		run(findExperiment(*experiment))
	}

	if report != nil {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpagg-bench:", err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpagg-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
