package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runAA compares the working tree with itself. It starts untraced runs
// of this binary as separate processes, runs of every set interleaved
// (and the sets' order swapped from one round to the next) so that no
// set owns a quiet or a slow stretch of the host, and prints, per
// workload and end-to-end metric, every set's median, the worst
// difference between two sets as a share of the first, and the bound.
// Any difference past its bound makes the exit status 1: the benchmark
// then cannot tell a regression of that size from noise.
func runAA(sets, runs int, seed uint64, seconds int) int {
	if sets < 2 || runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs -sets >= 2 and -runs >= 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	ws := workloads()
	// vals[workload][metric][set] lists that set's values in run order.
	vals := map[string]map[string][][]float64{}
	for _, w := range ws {
		vals[w.name] = map[string][][]float64{}
		for _, d := range endToEnd {
			vals[w.name][d.name] = make([][]float64, sets)
		}
	}
	begin := time.Now()
	for r := 0; r < runs; r++ {
		for _, w := range ws {
			for i := 0; i < sets; i++ {
				set := i
				if r%2 == 1 {
					set = sets - 1 - i
				}
				res, err := runChild(exe, w.name, seed+uint64(r), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: -aa: %s run %d set %d: %v\n", w.name, r, set, err)
					return 1
				}
				for _, d := range endToEnd {
					vals[w.name][d.name][set] = append(vals[w.name][d.name][set], res.Metrics[d.name].Value)
				}
			}
		}
	}

	fmt.Printf("A/A: %d sets x %d runs x %d workloads of %d s, interleaved, seeds %d..%d, %s, nproc %d, %s, took %s\n",
		sets, runs, len(ws), seconds, seed, seed+uint64(runs)-1, runtime.Version(), runtime.NumCPU(), commit(), time.Since(begin).Round(time.Second))
	fmt.Printf("%-13s %-19s %-8s", "workload", "metric", "unit")
	for s := 0; s < sets; s++ {
		fmt.Printf(" %12s", "median "+string(rune('A'+s)))
	}
	fmt.Printf(" %9s %7s  %s\n", "worst", "bound", "verdict")
	status := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			meds := make([]float64, sets)
			for s := range meds {
				meds[s] = median(vals[w.name][d.name][s])
			}
			// The worst any set is against any other, as a share of the other.
			worst := 0.0
			for a := range meds {
				for b := range meds {
					diff := meds[b]/meds[a] - 1
					if d.better == "higher" {
						diff = -diff
					}
					worst = max(worst, diff)
				}
			}
			verdict := "ok"
			if worst > d.bound {
				verdict, status = "EXCEEDS", 1
			}
			fmt.Printf("%-13s %-19s %-8s", w.name, d.name, d.unit)
			for _, v := range meds {
				fmt.Printf(" %12.6g", v)
			}
			fmt.Printf(" %8.2f%% %6.0f%%  %s\n", worst*100, d.bound*100, verdict)
		}
	}
	return status
}

// runChild runs one untraced workload in a fresh process and decodes the
// last line of its output.
func runChild(exe, workload string, seed uint64, seconds int) (result, error) {
	var res result
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("decoding result: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}
