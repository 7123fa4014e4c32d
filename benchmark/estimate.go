package main

import (
	"fmt"
	"math"
	"sort"
)

// The estimators. Interference on a shared host only ever slows work
// down, it comes in bursts shorter than an op and in epochs longer than
// a run, and the whole-run median moves with it by a quarter. What
// repeats from run to run is how fast the work goes when nothing
// interferes, so every timing metric is the quiet decile of its samples:
// the 10th percentile of a time, the 90th of a rate. The samples are
// single steps (one statement's round trip, one append) for latency and
// short blocks of the run for rates and CPU.

const (
	// quietPct is the percentile a time is reported at; a rate is
	// reported at 100 - quietPct.
	quietPct = 10
	// tailBeyond is how many samples must lie beyond a reported
	// percentile, on its far side from the median.
	tailBeyond = 10
)

// tailMenu is the percentiles a tail may be reported at, highest first.
var tailMenu = []float64{99, 95, 90, 75, 50}

// percentile returns the p-th percentile of an ascending slice by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// quantile is percentile over an unsorted slice, which it leaves alone.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, p)
}

func median(v []float64) float64 { return quantile(v, 50) }

// lowerQuartile is the ladder's estimator of one rung's time. A rung is
// repeated too few times for a decile, and on this host the median of so
// few moves with every burst of interference; the lower quartile sits
// near the quiet floor the end-to-end decile reports.
func lowerQuartile(v []float64) float64 { return quantile(v, 25) }

// quiet returns the quiet decile of the samples: the quietPct-th
// percentile when lower is better, its mirror when higher is. It refuses
// a sample too small to have tailBeyond values beyond that percentile
// rather than report a number the sample cannot support.
func quiet(what string, vals []float64, lowerIsBetter bool) (float64, error) {
	if len(vals)*quietPct < tailBeyond*100 {
		return 0, fmt.Errorf("%s: %d samples, the quiet decile needs %d: lengthen the run or lighten the op",
			what, len(vals), tailBeyond*100/quietPct)
	}
	if lowerIsBetter {
		return quantile(vals, quietPct), nil
	}
	return quantile(vals, 100-quietPct), nil
}

// supportedTail picks the highest percentile of tailMenu that n samples
// support: at least tailBeyond of them lie beyond it.
func supportedTail(n int) (float64, error) {
	for _, p := range tailMenu {
		if float64(n)*(100-p)/100 >= tailBeyond {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples support no percentile (need %d beyond the median)", n, tailBeyond)
}
