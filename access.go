package bpagg

import (
	"bpagg/internal/bitvec"
	"bpagg/internal/nbp"
)

// AccessMethod selects how an aggregate is evaluated. The paper positions
// its bit-parallel algorithms as "additional access methods for the
// optimizer to consider when the queries are not highly selective"
// (§III); Auto implements exactly that choice.
type AccessMethod int

const (
	// BitParallel always runs the paper's bit-parallel algorithms
	// (package core) — the default.
	BitParallel AccessMethod = iota
	// Reconstruct always runs the non-bit-parallel baseline: reconstruct
	// each selected value, aggregate in plain form. Optimal for highly
	// selective queries.
	Reconstruct
	// Auto picks per call: bit-parallel when the selection is dense
	// enough that whole-word processing wins, reconstruction when only a
	// sliver of tuples passed the filter. The choice needs a realized
	// selection, so it governs two-phase aggregates only: a query that can
	// fuse, partition single-pass or run banked still does.
	Auto
)

// Access selects the aggregate evaluation strategy of Column aggregates
// and of a query's two-phase SUM, AVG, MIN and MAX. It does not reach
// GROUP BY or a query's MEDIAN, RANK and QUANTILE: under any method, every
// per-group aggregate is one banked pass over the partition's run list,
// and a query's rank is one radix descent over every live shard's
// candidates, since reconstructing per group or per shard would take a
// dense selection each.
func Access(m AccessMethod) ExecOption {
	return ExecOption{kind: optAccess, n: int(m)}
}

// autoThreshold returns the selectivity below which reconstruction wins
// for the layout. The defaults come from the measured crossovers in
// EXPERIMENTS.md (Figure 5): VBP reconstruction costs k bit-gathers per
// value and loses early; HBP reconstruction is a handful of shifts and
// stays competitive until selections get fairly dense.
func autoThreshold(layout Layout) float64 {
	if layout == VBP {
		return 0.02
	}
	return 0.10
}

// useReconstruct resolves the access decision for one aggregate call.
func (c *Column) useReconstruct(eff *bitvec.Bitmap, o execConfig) bool {
	switch o.access {
	case Reconstruct:
		return true
	case Auto:
		n := c.Len()
		if n == 0 {
			return false
		}
		return float64(eff.Count())/float64(n) < autoThreshold(c.layout)
	default:
		return false
	}
}

// nbpSource returns the reconstruction interface of the packed layout.
func (c *Column) nbpSource() interface {
	At(i int) uint64
	Len() int
} {
	if c.layout == VBP {
		return c.v
	}
	return c.h
}

func nbpOptions(o execConfig) nbp.Options {
	return nbp.Options{Threads: o.par.Threads}
}
