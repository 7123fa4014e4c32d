// Package parallel implements multi-threaded drivers for the bit-parallel
// aggregation kernels (paper §IV-B): the column's segments are partitioned
// across worker goroutines, each worker runs the serial (package core)
// kernel over its partition, and the partial results combine at the end.
//
// SUM/MIN/MAX decompose freely. MEDIAN (and general r-selection) has the
// synchronization point the paper describes: every radix step needs the
// global candidate counter (VBP) or merged histogram (HBP) before any
// worker may refine its candidates, so workers rendezvous once per step.
package parallel

import "bpagg/internal/metrics"

// Options selects the execution strategy.
type Options struct {
	// Threads is the number of worker goroutines; values < 2 mean serial.
	Threads int
	// Stats, when non-nil, receives one ExecStats batch per driver call
	// (segments aggregated, words touched, radix rounds, busy/wall
	// time); nil (the default) keeps the workers off the clock and the
	// counters.
	Stats *metrics.Collector
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// partition splits [0, nseg) into at most n contiguous ranges of nearly
// equal size.
func partition(nseg, n int) [][2]int {
	if n > nseg {
		n = nseg
	}
	if n < 1 {
		n = 1
	}
	out := make([][2]int, 0, n)
	base, rem := nseg/n, nseg%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
