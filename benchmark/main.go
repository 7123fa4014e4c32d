// Command benchmark is the repository's benchmark: four SQL-over-HTTP
// workloads against an in-process bpaggd, end-to-end metrics from an
// untraced run and a per-layer ladder from a traced one. README.md in
// this directory describes the protocol, the metrics and how they
// interact; BENCHMARK.json at the repository root names them for the
// driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", runSeconds, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics and <out>/<workload>.trace.jsonl")
		out     = flag.String("out", "benchmark/out", "directory the traced run writes its span files to")
		aa      = flag.Bool("aa", false, "interleave sets of runs of this build and compare their medians with the bounds")
		sets    = flag.Int("sets", 2, "-aa: sets of runs")
		runs    = flag.Int("runs", 5, "-aa: runs per set and workload")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(*sets, *runs, *seed, *seconds))
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads()
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	code := 0
	for _, w := range todo {
		var res result
		var err error
		if length := time.Duration(*seconds) * time.Second; *trace == 1 {
			res, err = runTraced(w, *seed, length, *out)
		} else {
			res, err = runUntraced(w, *seed, length)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printResult(w, *seed, res)
		if !res.Correct {
			code = 1
		}
		runtime.GC()
	}
	os.Exit(code)
}

// runSeconds is the measured length the driver is told to ask for; the
// -seconds default is the same.
const runSeconds = 20

// printResult prints every metric by name with its unit, the run's
// context, and then the one-line JSON object the driver reads.
func printResult(w *workload, seed uint64, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-32s %14.6g %s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-14s seed=%d attempted=%d failed=%d go=%s nproc=%d commit=%s\n",
		w.name, seed, res.Attempted, res.Failed, runtime.Version(), runtime.NumCPU(), commit())
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
