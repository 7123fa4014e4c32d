package bpagg

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/nbp"
	"bpagg/internal/parallel"
)

// Error handling and cancellation contract
//
// The ...Context methods below are the one implementation of the
// aggregates: they accept a context.Context, validate their arguments
// instead of panicking, and return errors for everything that can go
// wrong at runtime — cancellation (context.Canceled), deadlines
// (context.DeadlineExceeded), mismatched selections, out-of-range
// quantiles, and recovered worker panics (*PanicError).
//
// Workers check the context between segment blocks and at every radix
// rendezvous of MEDIAN/rank, so cancellation of a long aggregation over
// a large column takes effect within a fraction of a millisecond of
// work per worker rather than after a full scan. On any error all
// worker goroutines are joined before the call returns; no goroutine
// outlives its aggregate.
//
// The plain methods (Sum, Median, ...) call their Context twin with a
// nil ctx and re-raise its error through fusedMust: panics are reserved
// for programmer errors (mismatched selection lengths, out-of-range
// quantile constants, a sum past uint64), and a worker panic propagates
// with its original value. Code operating on untrusted input should use
// the ...Context variants.

// PanicError reports a worker panic recovered during a parallel
// aggregate: one corrupt segment or faulty kernel surfaces as an error
// on the caller instead of crashing the process. Value and Stack carry
// the original panic for diagnosis.
type PanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("bpagg: aggregation worker %d panicked: %v", e.Worker, e.Value)
}

// wrapExecErr rewraps internal execution errors into their public form.
func wrapExecErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return &PanicError{Worker: pe.Worker, Value: pe.Value, Stack: pe.Stack}
	}
	var oe *parallel.OverflowError
	if errors.As(err, &oe) {
		return &OverflowError{Hi: oe.Hi, Lo: oe.Lo}
	}
	return err
}

// orBackground tolerates a nil ctx (treated as context.Background()) so
// the Context API is safe to call from code that may not have one.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// checkSelErr validates a selection against the column's length.
func (c *Column) checkSelErr(sel *Bitmap) error {
	if sel == nil {
		return fmt.Errorf("bpagg: nil selection")
	}
	if sel.b.Len() != c.Len() {
		return fmt.Errorf("bpagg: selection length %d does not match column length %d",
			sel.b.Len(), c.Len())
	}
	return nil
}

// CountContext returns the number of selected non-NULL rows. It exists
// for symmetry with the other Context aggregates: COUNT is one popcount
// pass and is not worth cancelling mid-flight, so only the entry check
// observes ctx.
func (c *Column) CountContext(ctx context.Context, sel *Bitmap) (uint64, error) {
	if err := c.checkSelErr(sel); err != nil {
		return 0, err
	}
	if err := orBackground(ctx).Err(); err != nil {
		return 0, err
	}
	return c.Count(sel), nil
}

// SumContext is Sum with cancellation, deadline, and panic-recovery
// support.
func (c *Column) SumContext(ctx context.Context, sel *Bitmap, opts ...ExecOption) (uint64, error) {
	if err := c.checkSelErr(sel); err != nil {
		return 0, err
	}
	return c.sumEff(orBackground(ctx), c.effective(sel), execOptions(opts))
}

// sumEff sums the column over an effective (NULL-free) selection.
func (c *Column) sumEff(ctx context.Context, eff *bitvec.Bitmap, o execConfig) (uint64, error) {
	if c.useReconstruct(eff, o) {
		// The reconstruction baseline only wins on sparse selections, so
		// the whole call is short; ctx is observed at entry only.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		defer recordReconstruct(o.par.Stats, eff, time.Now())
		if c.sumOverflowPossible() {
			hi, lo := nbp.Sum128(c.nbpSource(), eff)
			if hi != 0 {
				return 0, &OverflowError{Hi: hi, Lo: lo}
			}
			return lo, nil
		}
		return nbp.SumOpt(c.nbpSource(), eff, nbpOptions(o)), nil
	}
	sum, _, err := c.sum(ctx, core.Bits(eff), o)
	return sum, err
}

// sum runs the SUM driver of the column's layout: SUM and COUNT of the
// rows src selects, a fused predicate conjunction or a two-phase bitmap.
func (c *Column) sum(ctx context.Context, src core.Filter, o execConfig) (sum, cnt uint64, err error) {
	if c.layout == VBP {
		sum, cnt, err = parallel.VBPSumFilterCtx(ctx, c.v, src, o.par)
	} else {
		sum, cnt, err = parallel.HBPSumFilterCtx(ctx, c.h, src, o.par)
	}
	return sum, cnt, wrapExecErr(err)
}

// MinContext is Min with cancellation, deadline, and panic-recovery
// support.
func (c *Column) MinContext(ctx context.Context, sel *Bitmap, opts ...ExecOption) (uint64, bool, error) {
	return c.extremeContext(ctx, sel, opts, true)
}

// MaxContext is Max with cancellation, deadline, and panic-recovery
// support.
func (c *Column) MaxContext(ctx context.Context, sel *Bitmap, opts ...ExecOption) (uint64, bool, error) {
	return c.extremeContext(ctx, sel, opts, false)
}

func (c *Column) extremeContext(ctx context.Context, sel *Bitmap, opts []ExecOption, wantMin bool) (uint64, bool, error) {
	ctx = orBackground(ctx)
	if err := c.checkSelErr(sel); err != nil {
		return 0, false, err
	}
	o := execOptions(opts)
	eff := c.effective(sel)
	if c.useReconstruct(eff, o) {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		defer recordReconstruct(o.par.Stats, eff, time.Now())
		if wantMin {
			v, ok := nbp.MinOpt(c.nbpSource(), eff, nbpOptions(o))
			return v, ok, nil
		}
		v, ok := nbp.MaxOpt(c.nbpSource(), eff, nbpOptions(o))
		return v, ok, nil
	}
	if !eff.Any() {
		return 0, false, nil // no extreme, and nothing runs or records
	}
	v, cnt, err := c.extreme(ctx, core.Bits(eff), o, wantMin)
	return v, cnt > 0, err
}

// extreme runs the MIN (wantMin) or MAX driver of the column's layout over
// the rows src selects; cnt == 0 means nothing matched.
func (c *Column) extreme(ctx context.Context, src core.Filter, o execConfig, wantMin bool) (v, cnt uint64, err error) {
	if c.layout == VBP {
		v, cnt, err = parallel.VBPExtremeFilterCtx(ctx, c.v, src, o.par, wantMin)
	} else {
		v, cnt, err = parallel.HBPExtremeFilterCtx(ctx, c.h, src, o.par, wantMin)
	}
	return v, cnt, wrapExecErr(err)
}

// AvgContext is Avg with cancellation, deadline, and panic-recovery
// support.
func (c *Column) AvgContext(ctx context.Context, sel *Bitmap, opts ...ExecOption) (float64, bool, error) {
	return avgOf(c.sumCount(ctx, sel, opts))
}

// sumCount is SUM with the selected non-NULL count AVG divides it by. The
// bit-parallel kernels are not run (and nothing records) over an empty
// selection; the reconstruction baseline is its own one short call either
// way.
func (c *Column) sumCount(ctx context.Context, sel *Bitmap, opts []ExecOption) (sum, cnt uint64, err error) {
	if err := c.checkSelErr(sel); err != nil {
		return 0, 0, err
	}
	o, eff := execOptions(opts), c.effective(sel)
	if cnt = core.Count(eff); cnt == 0 && !c.useReconstruct(eff, o) {
		return 0, 0, nil
	}
	sum, err = c.sumEff(orBackground(ctx), eff, o)
	return sum, cnt, err
}

// MedianContext is Median with cancellation, deadline, and
// panic-recovery support. The multi-step radix refinement checks ctx at
// every per-bit (VBP) or per-chunk (HBP) rendezvous, so even medians
// over very large columns cancel promptly.
func (c *Column) MedianContext(ctx context.Context, sel *Bitmap, opts ...ExecOption) (uint64, bool, error) {
	return c.rankContext(ctx, sel, opts, medianRank)
}

// RankContext is Rank with cancellation, deadline, and panic-recovery
// support. ok is false when fewer than r rows are selected or r is 0.
func (c *Column) RankContext(ctx context.Context, sel *Bitmap, r uint64, opts ...ExecOption) (uint64, bool, error) {
	return c.rankContext(ctx, sel, opts, func(uint64) (uint64, bool) { return r, true })
}

// QuantileContext is Quantile with cancellation, deadline, and
// panic-recovery support. Unlike Quantile, an out-of-range q returns an
// error instead of panicking, so q may come from untrusted input.
func (c *Column) QuantileContext(ctx context.Context, sel *Bitmap, q float64, opts ...ExecOption) (uint64, bool, error) {
	if err := checkQuantile(q); err != nil {
		return 0, false, err
	}
	return c.rankContext(ctx, sel, opts, quantileRank(q))
}

// rankContext answers the rank rankOf picks from the selected non-NULL
// count: by reconstruction when the access method says so, else in one
// radix descent. A count rankOf refuses returns before anything runs or
// records, and so does a rank past the count on the descent.
func (c *Column) rankContext(ctx context.Context, sel *Bitmap, opts []ExecOption, rankOf func(u uint64) (uint64, bool)) (uint64, bool, error) {
	ctx = orBackground(ctx)
	if err := c.checkSelErr(sel); err != nil {
		return 0, false, err
	}
	o, eff := execOptions(opts), c.effective(sel)
	u := core.Count(eff)
	r, want := rankOf(u)
	if !want {
		return 0, false, nil
	}
	if c.useReconstruct(eff, o) {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		defer recordReconstruct(o.par.Stats, eff, time.Now())
		v, ok := nbp.RankOpt(c.nbpSource(), eff, r, nbpOptions(o))
		return v, ok, nil
	}
	if r == 0 || r > u {
		return 0, false, nil
	}
	return c.rank(ctx, core.Bits(eff), o.par, rankOf)
}

// rank answers one order statistic of the rows src selects in one radix
// descent; rankOf maps their count to the wanted 1-based rank.
func (c *Column) rank(ctx context.Context, src core.Filter, o parallel.Options, rankOf func(u uint64) (uint64, bool)) (uint64, bool, error) {
	v, _, ok, err := parallel.FilterRankCtx(ctx, groupCol(c), src, rankOf, o)
	return v, ok, wrapExecErr(err)
}
