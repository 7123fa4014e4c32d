package parallel

import (
	"context"
	"math/bits"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
)

// Scalar aggregate drivers: one per family — SUM, COUNT, MIN/MAX — each
// partitioning the segment range across workers (forEachRangeErr, so
// cancellation and panic hardening come for free, uniformly at Threads=1)
// and running the family's one core kernel, whose filter words come from
// a core.Filter: a fused query's predicate conjunction or a two-phase
// query's bitmap. A scalar rank is the rank driver's (rank.go) over one
// part cut from the same Filter. Every driver call may run a worker body
// several times with sub-ranges, so partials and counters accumulate.
//
// The kernels count their own work (core.FusedStats is cheap plain-field
// accumulation); the counters reach a collector only when o.Stats != nil.
// A predicate-fed call records Scans = len(preds) with ScanNanos = 0: all
// wall time lands in AggNanos, because there is no separate scan phase to
// time. A bitmap-fed call records no scan: the scan that built the bitmap
// did.
//
// The per-layout named drivers are thin wrappers. The bitmap ones keep the
// two-phase contracts: MIN/MAX of an empty bitmap and a rank past its
// count return before anything runs or records.

// worker is what one worker of a driver accumulates: the kernel's work
// counters, the selected tuple count and, for SUM, a 128-bit partial.
type worker struct {
	st          core.FusedStats
	hi, lo, cnt uint64
}

// merge totals the workers' counts, 128-bit partials (in ascending worker
// order) and kernel counters.
func merge(parts []worker) (hi, lo, cnt uint64, fs core.FusedStats) {
	for i := range parts {
		p := &parts[i]
		var carry uint64
		lo, carry = bits.Add64(lo, p.lo, 0)
		hi += p.hi + carry
		cnt += p.cnt
		fs = fs.Add(p.st)
	}
	return hi, lo, cnt, fs
}

// filterStats folds a kernel pass's counters into the ExecStats schema,
// scan-side (the predicates of src) and aggregate-side at once: what a
// driver records as its one aggregate.
func filterStats(fs core.FusedStats, src core.Filter) metrics.ExecStats {
	return metrics.ExecStats{
		Scans:               uint64(src.Scans()),
		SegmentsScanned:     fs.SegmentsScanned,
		SegmentsPrunedNone:  fs.SegmentsPrunedNone,
		SegmentsPrunedAll:   fs.SegmentsPrunedAll,
		WordsCompared:       fs.WordsCompared,
		SegmentsAggregated:  fs.SegmentsAggregated,
		WordsTouched:        fs.WordsTouched,
		SegmentsCacheServed: fs.SegmentsCacheServed,
		SegmentsBoundPruned: fs.SegmentsBoundPruned,
	}
}

// each runs body over segments [0, nseg) on workers numbered below
// threads, in ranges that start on a multiple of unit, charging their busy
// time; it returns the workers that ran.
func each(ctx context.Context, ws []metrics.ExecStats, nseg, unit, threads int, body func(w, lo, hi int)) (int, error) {
	return forEachAlignedErr(ctx, nseg, unit, threads, func(w, lo, hi int) error {
		t0 := statsNow(ws)
		body(w, lo, hi)
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
}

// segmented is what the layout-generic drivers need of a column besides
// its kernels, which they take as plain function values (no closure per
// call): *vbp.Column or *hbp.Column.
type segmented interface{ NumSegments() int }

// sumCtx is the SUM driver: SUM and COUNT of the tuples src selects. A
// total past uint64 — possible only where core.SumOverflowPossible holds —
// returns *OverflowError.
func sumCtx[C segmented](ctx context.Context, col C, src core.Filter, o Options,
	kernel func(col C, src core.Filter, segLo, segHi int, st *core.FusedStats) (hi, lo, cnt uint64)) (sum, cnt uint64, err error) {
	ws, start := o.statsBegin()
	parts := make([]worker, o.threads())
	if _, err = each(ctx, ws, col.NumSegments(), 1, len(parts), func(w, lo, hi int) {
		p := &parts[w]
		ph, pl, c := kernel(col, src, lo, hi, &p.st)
		var carry uint64
		p.lo, carry = bits.Add64(p.lo, pl, 0)
		p.hi += ph + carry
		p.cnt += c
	}); err != nil {
		return 0, 0, err
	}
	hi, lo, cnt, fs := merge(parts)
	o.statsEnd(ws, start, filterStats(fs, src))
	if sum, err = sum128Result(hi, lo); err != nil {
		return 0, 0, err
	}
	return sum, cnt, nil
}

// CountCtx counts the tuples src selects over a column of n tuples in
// vps-tuple windows, honoring ctx. COUNT reads no packed word, so it needs
// no layout.
func CountCtx(ctx context.Context, src core.Filter, vps, n int, o Options) (uint64, error) {
	ws, start := o.statsBegin()
	parts := make([]worker, o.threads())
	if _, err := each(ctx, ws, (n+vps-1)/vps, 1, len(parts), func(w, lo, hi int) {
		parts[w].cnt += core.Select(src, vps, n, nil, lo, hi, &parts[w].st)
	}); err != nil {
		return 0, err
	}
	_, _, cnt, fs := merge(parts)
	o.statsEnd(ws, start, filterStats(fs, src))
	return cnt, nil
}

// A worker's ranges are workerBlock-segment slices of its partition, so
// they start on prune-block boundaries only if PruneBlock divides
// workerBlock; this constant does not compile otherwise.
const _ uint = -(workerBlock % core.PruneBlock)

// extremeCtx is the MIN/MAX driver: fold runs the layout's kernel over
// segments [lo, hi) into one worker's accumulator (made by newTemp),
// reporting the best cache-served value, if any, and a count that is > 0
// iff anything was selected; finish reconstructs the fold finalists of
// the workers that ran, and the cache-served bests compete with them (the
// fold identities are neutral whenever cnt > 0). cnt == 0 means nothing
// matched and v is meaningless. Workers take whole prune blocks
// (core.PruneBlock), so the windows the kernels bound-prune, and every
// counter, are the same at any thread count.
func extremeCtx[C segmented](ctx context.Context, col C, src core.Filter, o Options, wantMin bool,
	fold func(col C, src core.Filter, temp []uint64, wantMin bool, lo, hi int, st *core.FusedStats) (best uint64, any bool, cnt uint64),
	newTemp func() []uint64, finish func(temps [][]uint64) uint64) (v, cnt uint64, err error) {
	ws, start := o.statsBegin()
	parts := make([]worker, o.threads())
	temps := make([][]uint64, len(parts))
	for w := range temps {
		temps[w] = newTemp()
	}
	bests := make([]uint64, len(parts))
	anys := make([]bool, len(parts))
	used, err := each(ctx, ws, col.NumSegments(), core.PruneBlock, len(parts), func(w, lo, hi int) {
		b, a, c := fold(col, src, temps[w], wantMin, lo, hi, &parts[w].st)
		if a && (!anys[w] || wantMin && b < bests[w] || !wantMin && b > bests[w]) {
			bests[w], anys[w] = b, true
		}
		parts[w].cnt += c
	})
	if err != nil {
		return 0, 0, err
	}
	_, _, cnt, fs := merge(parts)
	if cnt > 0 {
		v = finish(temps[:used])
		for w := 0; w < used; w++ {
			if anys[w] && (wantMin && bests[w] < v || !wantMin && bests[w] > v) {
				v = bests[w]
			}
		}
	}
	o.statsEnd(ws, start, filterStats(fs, src))
	return v, cnt, nil
}

// VBPSumFilterCtx computes SUM and COUNT of the tuples src selects over a
// VBP column, honoring ctx.
func VBPSumFilterCtx(ctx context.Context, col *vbp.Column, src core.Filter, o Options) (sum, cnt uint64, err error) {
	return sumCtx(ctx, col, src, o, core.VBPSumCount)
}

// HBPSumFilterCtx is VBPSumFilterCtx over an HBP column.
func HBPSumFilterCtx(ctx context.Context, col *hbp.Column, src core.Filter, o Options) (sum, cnt uint64, err error) {
	return sumCtx(ctx, col, src, o, core.HBPSumCount)
}

// VBPExtremeFilterCtx computes MIN (wantMin) or MAX of the tuples src
// selects over a VBP column, honoring ctx, with the selected count;
// cnt == 0 means nothing matched.
func VBPExtremeFilterCtx(ctx context.Context, col *vbp.Column, src core.Filter, o Options, wantMin bool) (v, cnt uint64, err error) {
	k := col.K()
	return extremeCtx(ctx, col, src, o, wantMin, core.VBPFold,
		func() []uint64 { return core.NewVBPExtremeTemp(k, wantMin) },
		func(temps [][]uint64) uint64 { return core.VBPFinishExtreme(temps, k, wantMin) })
}

// HBPExtremeFilterCtx is VBPExtremeFilterCtx over an HBP column.
func HBPExtremeFilterCtx(ctx context.Context, col *hbp.Column, src core.Filter, o Options, wantMin bool) (v, cnt uint64, err error) {
	return extremeCtx(ctx, col, src, o, wantMin, core.HBPFold,
		func() []uint64 { return core.NewHBPExtremeTemp(col, wantMin) },
		func(temps [][]uint64) uint64 { return core.HBPFinishExtreme(col, temps, wantMin) })
}

// FilterRankCtx computes a rank statistic of the tuples src selects over
// col, honoring ctx: one part, one descent (RankCtx). rankOf maps the
// selected count cnt to the 1-based rank to extract (MEDIAN passes
// (cnt+1)/2) and reports whether a rank is wanted at all.
func FilterRankCtx(ctx context.Context, col GroupCol, src core.Filter, rankOf func(u uint64) (uint64, bool), o Options) (val, cnt uint64, ok bool, err error) {
	p, err := FilterRankPart(ctx, col, src, o)
	if err != nil {
		return 0, 0, false, err
	}
	vals, oks, err := RankCtx(ctx, []RankPart{p}, 1, rankOf, o)
	if err != nil {
		return 0, 0, false, err
	}
	return vals[0], p.rows, oks[0], nil
}

// VBPSumCtx computes SUM over a VBP column, honoring ctx. A total past
// uint64 on a column where that is possible returns *OverflowError.
func VBPSumCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options) (uint64, error) {
	sum, _, err := VBPSumFilterCtx(ctx, col, core.Bits(f), o)
	return sum, err
}

// HBPSumCtx computes SUM over an HBP column, honoring ctx; the overflow
// contract is VBPSumCtx's.
func HBPSumCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options) (uint64, error) {
	sum, _, err := HBPSumFilterCtx(ctx, col, core.Bits(f), o)
	return sum, err
}

// VBPMinCtx computes MIN over a VBP column, honoring ctx; ok is false
// when no tuple passes the filter.
func VBPMinCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return bitsExtreme(ctx, col, f, o, true, VBPExtremeFilterCtx)
}

// VBPMaxCtx computes MAX over a VBP column, honoring ctx.
func VBPMaxCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return bitsExtreme(ctx, col, f, o, false, VBPExtremeFilterCtx)
}

// HBPMinCtx computes MIN over an HBP column, honoring ctx; ok is false
// when no tuple passes the filter.
func HBPMinCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return bitsExtreme(ctx, col, f, o, true, HBPExtremeFilterCtx)
}

// HBPMaxCtx computes MAX over an HBP column, honoring ctx.
func HBPMaxCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return bitsExtreme(ctx, col, f, o, false, HBPExtremeFilterCtx)
}

// bitsExtreme runs a MIN/MAX driver on bitmap f, unless f is empty.
func bitsExtreme[C any](ctx context.Context, col C, f *bitvec.Bitmap, o Options, wantMin bool,
	driver func(context.Context, C, core.Filter, Options, bool) (uint64, uint64, error)) (uint64, bool, error) {
	if !f.Any() {
		return 0, false, nil
	}
	v, _, err := driver(ctx, col, core.Bits(f), o, wantMin)
	return v, err == nil, err
}

// VBPRankCtx computes the r-th smallest filtered value, honoring ctx.
// Cancellation is checked at every per-bit rendezvous in addition to the
// per-block checks inside each pass, so even a mid-refinement deadline is
// honored within one radix step.
func VBPRankCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, r uint64, o Options) (uint64, bool, error) {
	return bitsRank(ctx, GroupCol{V: col}, f, r, o)
}

// HBPRankCtx computes the r-th smallest filtered value, honoring ctx.
// Cancellation is checked at every histogram rendezvous (per bit-group
// chunk) in addition to the per-block checks inside each pass.
func HBPRankCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, r uint64, o Options) (uint64, bool, error) {
	return bitsRank(ctx, GroupCol{H: col}, f, r, o)
}

// bitsRank runs the rank driver for rank r on bitmap f, unless r is 0 or
// past f's count.
func bitsRank(ctx context.Context, col GroupCol, f *bitvec.Bitmap, r uint64, o Options) (uint64, bool, error) {
	if r == 0 || r > core.Count(f) {
		return 0, false, nil
	}
	v, _, ok, err := FilterRankCtx(ctx, col, core.Bits(f), func(uint64) (uint64, bool) { return r, true }, o)
	return v, ok, err
}

// VBPFusedSumCtx computes SUM and COUNT of the tuples matching the
// predicate conjunction over a VBP column in one fused pass, honoring
// ctx; the overflow contract is VBPSumCtx's.
func VBPFusedSumCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options) (sum, cnt uint64, err error) {
	return VBPSumFilterCtx(ctx, col, core.Preds(preds), o)
}

// HBPFusedSumCtx is VBPFusedSumCtx over an HBP column.
func HBPFusedSumCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options) (sum, cnt uint64, err error) {
	return HBPSumFilterCtx(ctx, col, core.Preds(preds), o)
}

// VBPFusedCountCtx counts the tuples matching the predicate conjunction
// over a VBP column, honoring ctx.
func VBPFusedCountCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options) (uint64, error) {
	return CountCtx(ctx, core.Preds(preds), vbp.SegBits, col.Len(), o)
}

// HBPFusedCountCtx is VBPFusedCountCtx over an HBP column.
func HBPFusedCountCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options) (uint64, error) {
	return CountCtx(ctx, core.Preds(preds), col.ValuesPerSegment(), col.Len(), o)
}

// VBPFusedExtremeCtx computes MIN (wantMin) or MAX of the tuples matching
// the predicate conjunction over a VBP column, honoring ctx; cnt == 0
// means nothing matched.
func VBPFusedExtremeCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options, wantMin bool) (v, cnt uint64, err error) {
	return VBPExtremeFilterCtx(ctx, col, core.Preds(preds), o, wantMin)
}

// HBPFusedExtremeCtx is VBPFusedExtremeCtx over an HBP column.
func HBPFusedExtremeCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options, wantMin bool) (v, cnt uint64, err error) {
	return HBPExtremeFilterCtx(ctx, col, core.Preds(preds), o, wantMin)
}

// VBPFusedRankCtx computes a rank statistic of the tuples matching the
// predicate conjunction over a VBP column, honoring ctx; rankOf is
// FilterRankCtx's.
func VBPFusedRankCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, rankOf func(u uint64) (uint64, bool), o Options) (val, cnt uint64, ok bool, err error) {
	return FilterRankCtx(ctx, GroupCol{V: col}, core.Preds(preds), rankOf, o)
}

// HBPFusedRankCtx is VBPFusedRankCtx over an HBP column.
func HBPFusedRankCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, rankOf func(u uint64) (uint64, bool), o Options) (val, cnt uint64, ok bool, err error) {
	return FilterRankCtx(ctx, GroupCol{H: col}, core.Preds(preds), rankOf, o)
}
