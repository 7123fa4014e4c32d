package tpch

import (
	"context"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/nbp"
	"bpagg/internal/parallel"
)

// AggResult is the value of one aggregate expression (Float carries AVG,
// Uint everything else; Ok is false for empty selections on MIN/MAX/MEDIAN/
// AVG).
type AggResult struct {
	Uint  uint64
	Float float64
	Ok    bool
}

// RunAggBP evaluates every aggregate of the query with the bit-parallel
// algorithms (package core via the parallel drivers) over the filter f.
func (inst *Instance) RunAggBP(f *bitvec.Bitmap, o parallel.Options) []AggResult {
	out := make([]AggResult, len(inst.Query.Aggs))
	for i, spec := range inst.Query.Aggs {
		col := inst.Aggs[i]
		switch spec.Op {
		case CountOp:
			out[i] = AggResult{Uint: core.Count(f), Ok: true}
		case Sum:
			out[i] = AggResult{Uint: col.sumBP(f, o), Ok: true}
		case Avg:
			v, ok := col.avgBP(f, o)
			out[i] = AggResult{Float: v, Ok: ok}
		case Max:
			v, ok := col.maxBP(f, o)
			out[i] = AggResult{Uint: v, Ok: ok}
		case Median:
			v, ok := col.medianBP(f, o)
			out[i] = AggResult{Uint: v, Ok: ok}
		}
	}
	return out
}

// RunAggNBP evaluates every aggregate with the non-bit-parallel baseline
// (package nbp: reconstruct each passing value, aggregate in plain form),
// optionally multi-threaded so that Table II compares both methods under
// the same thread count.
func (inst *Instance) RunAggNBP(f *bitvec.Bitmap, o nbp.Options) []AggResult {
	out := make([]AggResult, len(inst.Query.Aggs))
	for i, spec := range inst.Query.Aggs {
		col := inst.Aggs[i]
		switch spec.Op {
		case CountOp:
			out[i] = AggResult{Uint: nbp.Count(f), Ok: true}
		case Sum:
			out[i] = AggResult{Uint: nbp.SumOpt(col.source(), f, o), Ok: true}
		case Avg:
			v, ok := nbp.AvgOpt(col.source(), f, o)
			out[i] = AggResult{Float: v, Ok: ok}
		case Max:
			v, ok := nbp.MaxOpt(col.source(), f, o)
			out[i] = AggResult{Uint: v, Ok: ok}
		case Median:
			v, ok := nbp.MedianOpt(col.source(), f, o)
			out[i] = AggResult{Uint: v, Ok: ok}
		}
	}
	return out
}

// AutoThreshold returns the selectivity below which the reconstruction
// baseline beats the bit-parallel sweep for the layout (the measured
// crossovers of EXPERIMENTS.md Figure 5). It drives RunAggAuto — the
// paper's §III framing of bit-parallel aggregation as an access method the
// optimizer picks for non-selective queries.
func AutoThreshold(layout Layout) float64 {
	if layout == VBP {
		return 0.02
	}
	return 0.10
}

// RunAggAuto evaluates the aggregates with the optimizer policy: the
// baseline when the realized selectivity is below the layout's threshold,
// the bit-parallel algorithms otherwise.
func (inst *Instance) RunAggAuto(f *bitvec.Bitmap, bp parallel.Options, nb nbp.Options) []AggResult {
	sel := float64(f.Count()) / float64(inst.N)
	if sel < AutoThreshold(inst.Layout) {
		return inst.RunAggNBP(f, nb)
	}
	return inst.RunAggBP(f, bp)
}

// source exposes the per-row reconstruction interface the NBP baseline
// drives.
func (c *Column) source() interface {
	At(i int) uint64
	Len() int
} {
	if c.layout == VBP {
		return c.v
	}
	return c.h
}

// must and must2 unwrap a driver result. The benchmark columns are
// synthetic and run under context.Background(), so a driver error (SUM
// overflow, worker panic) can only be a bug here.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func must2[T any](v T, ok bool, err error) (T, bool) {
	return must(v, err), ok
}

func (c *Column) sumBP(f *bitvec.Bitmap, o parallel.Options) uint64 {
	if c.layout == VBP {
		return must(parallel.VBPSumCtx(context.Background(), c.v, f, o))
	}
	return must(parallel.HBPSumCtx(context.Background(), c.h, f, o))
}

func (c *Column) avgBP(f *bitvec.Bitmap, o parallel.Options) (float64, bool) {
	cnt := f.Count()
	if cnt == 0 {
		return 0, false
	}
	return float64(c.sumBP(f, o)) / float64(cnt), true
}

func (c *Column) maxBP(f *bitvec.Bitmap, o parallel.Options) (uint64, bool) {
	if c.layout == VBP {
		return must2(parallel.VBPMaxCtx(context.Background(), c.v, f, o))
	}
	return must2(parallel.HBPMaxCtx(context.Background(), c.h, f, o))
}

func (c *Column) medianBP(f *bitvec.Bitmap, o parallel.Options) (uint64, bool) {
	r := (uint64(f.Count()) + 1) / 2 // lower median; rank 0 of an empty filter is not found
	if c.layout == VBP {
		return must2(parallel.VBPRankCtx(context.Background(), c.v, f, r, o))
	}
	return must2(parallel.HBPRankCtx(context.Background(), c.h, f, r, o))
}
