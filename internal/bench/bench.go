// Package bench is the experiment harness that regenerates every figure
// and table of the paper's evaluation (§IV): the selectivity sweep
// (Figure 5), the value-width sweep (Figure 6), the data-size sweep
// (Figure 7), the multi-threading speedups (Figure 8) and the TPC-H
// comparison (Table II).
//
// The paper reports processor cycles per tuple read with RDTSC on a fixed
// 3.4 GHz part and notes the metric "is equivalent to the wall clock
// time"; this harness reports nanoseconds per tuple from the monotonic
// clock, and all of the paper's conclusions are ratios, which are unit
// free.
package bench

import (
	"math/rand"
	"time"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Config controls the experiment scale. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	// N is the tuple count of micro-benchmark columns (paper: 1 billion).
	N int
	// K is the default value width in bits (paper: 25).
	K int
	// Sel is the default filter selectivity (paper: 0.1).
	Sel float64
	// Threads is the worker count for the multi-threaded experiments
	// (paper: 4, one per physical core).
	Threads int
	// Seed makes data generation deterministic.
	Seed int64
	// MinTime is the minimum measured duration per data point; short runs
	// repeat until they accumulate it.
	MinTime time.Duration
}

// DefaultConfig returns the scaled-down default experiment configuration
// (the paper's parameters at laptop-friendly N).
func DefaultConfig() Config {
	return Config{
		N:       4 << 20,
		K:       25,
		Sel:     0.1,
		Threads: 4,
		Seed:    1,
		MinTime: 150 * time.Millisecond,
	}
}

// Workload is one micro-benchmark column packed in both layouts, plus a
// filter bit vector of the configured selectivity — the setting of the
// paper's benchmark query Q1: SELECT agg(X) FROM Y WHERE Z < c.
type Workload struct {
	N, K int
	V    *vbp.Column
	H    *hbp.Column
	F    *bitvec.Bitmap
}

// NewWorkload generates a uniform k-bit column of n tuples with a Bernoulli
// filter of the given selectivity.
func NewWorkload(n, k int, sel float64, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	max := word.LowMask(k)
	f := bitvec.New(n)
	for i := range vals {
		vals[i] = rng.Uint64() & max
		if rng.Float64() < sel {
			f.Set(i)
		}
	}
	tauV := 4
	if tauV > k {
		tauV = k
	}
	return &Workload{
		N: n, K: k,
		V: vbp.Pack(vals, k, tauV),
		H: hbp.Pack(vals, k, hbp.DefaultTau(k)),
		F: f,
	}
}

// MeasureNsPerTuple runs fn repeatedly until minTime accumulates and
// returns the mean nanoseconds per tuple.
func MeasureNsPerTuple(n int, minTime time.Duration, fn func()) float64 {
	fn() // warm caches and one-time allocations
	var iters int
	var elapsed time.Duration
	for elapsed < minTime {
		start := time.Now()
		fn()
		elapsed += time.Since(start)
		iters++
	}
	return float64(elapsed.Nanoseconds()) / float64(iters) / float64(n)
}
