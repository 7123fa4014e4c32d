package parallel

import (
	"context"
	"time"

	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
)

// Fused scan→aggregate drivers. Each driver partitions the segment range
// exactly like the two-phase drivers (forEachRangeErr, so cancellation
// and panic hardening come for free, uniformly at Threads=1), but the
// worker bodies run the core fused kernels: per segment the predicate
// conjunction's filter word is computed and consumed while still
// register-resident, and all-match segments are answered from the
// per-segment aggregate caches.
//
// Work counting is always on in the kernels (core.FusedStats is cheap
// plain-field accumulation); the counters only reach a collector when
// o.Stats != nil. A fused query records Scans = len(preds) with
// ScanNanos = 0 — all wall time lands in AggNanos, because there is no
// separate scan phase to time.

// fusedWorker is what one worker of a fused driver accumulates besides
// its aggregate: the kernel's work counters and the selected tuple count.
type fusedWorker struct {
	st  core.FusedStats
	cnt uint64
}

// mergeFused totals the workers' selected counts and kernel counters.
func mergeFused(parts []fusedWorker) (cnt uint64, fs core.FusedStats) {
	for i := range parts {
		cnt += parts[i].cnt
		fs = fs.Add(parts[i].st)
	}
	return cnt, fs
}

// fusedStatsEnd folds the merged fused kernel counters into the ExecStats
// schema (scan-side and aggregate-side at once) and records a single
// aggregate invocation.
func (o Options) fusedStatsEnd(ws []metrics.ExecStats, start time.Time, fs core.FusedStats, npreds int, extra metrics.ExecStats) {
	if o.Stats == nil {
		return
	}
	extra.Scans += uint64(npreds)
	extra.SegmentsScanned += fs.SegmentsScanned
	extra.SegmentsPrunedNone += fs.SegmentsPrunedNone
	extra.SegmentsPrunedAll += fs.SegmentsPrunedAll
	extra.WordsCompared += fs.WordsCompared
	extra.SegmentsAggregated += fs.SegmentsAggregated
	extra.WordsTouched += fs.WordsTouched
	extra.SegmentsCacheServed += fs.SegmentsCacheServed
	o.statsEnd(ws, start, extra)
}

// VBPFusedSumCtx computes SUM and COUNT of the tuples matching the
// predicate conjunction over a VBP column in one fused pass, honoring
// ctx; the overflow contract is VBPSumCtx's.
func VBPFusedSumCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options) (sum, cnt uint64, err error) {
	checked := core.SumOverflowPossible(col.K(), col.Len())
	return o.fusedSumCtx(ctx, col.NumSegments(), len(preds), func(lo, hi int, st *core.FusedStats) (ph, pl, c uint64) {
		if checked {
			return core.VBPFusedSumCount128(col, preds, lo, hi, st)
		}
		pl, c = core.VBPFusedSumCount(col, preds, lo, hi, st)
		return 0, pl, c
	})
}

// HBPFusedSumCtx computes SUM and COUNT of the tuples matching the
// predicate conjunction over an HBP column in one fused pass, honoring ctx.
func HBPFusedSumCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options) (sum, cnt uint64, err error) {
	checked := core.SumOverflowPossible(col.K(), col.Len())
	return o.fusedSumCtx(ctx, col.NumSegments(), len(preds), func(lo, hi int, st *core.FusedStats) (ph, pl, c uint64) {
		if checked {
			return core.HBPFusedSumCount128(col, preds, lo, hi, st)
		}
		pl, c = core.HBPFusedSumCount(col, preds, lo, hi, st)
		return 0, pl, c
	})
}

// fusedSumCtx runs a fused SUM+COUNT kernel through the SUM skeleton with
// the fused drivers' stats plumbing.
func (o Options) fusedSumCtx(ctx context.Context, nseg, npreds int, kernel func(lo, hi int, st *core.FusedStats) (ph, pl, cnt uint64)) (sum, cnt uint64, err error) {
	ws, start := o.statsBegin()
	parts := make([]fusedWorker, o.threads())
	hi, lo, cnt, err := sumRanges(ctx, nseg, o.threads(), func(w, segLo, segHi int) (uint64, uint64, uint64) {
		t0 := statsNow(ws)
		ph, pl, c := kernel(segLo, segHi, &parts[w].st)
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return ph, pl, c
	})
	if err != nil {
		return 0, 0, err
	}
	_, fs := mergeFused(parts)
	o.fusedStatsEnd(ws, start, fs, npreds, metrics.ExecStats{})
	if sum, err = sum128Result(hi, lo); err != nil {
		return 0, 0, err
	}
	return sum, cnt, nil
}

// segmented is what the layout-generic drivers need of a column besides
// its kernels, which they take as plain function values (no closure per
// call): *vbp.Column or *hbp.Column.
type segmented interface{ NumSegments() int }

// VBPFusedCountCtx counts the tuples matching the predicate conjunction
// over a VBP column, honoring ctx. No aggregate words are touched.
func VBPFusedCountCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options) (cnt uint64, err error) {
	return fusedCountCtx(ctx, col, preds, o, core.VBPFusedCount)
}

// HBPFusedCountCtx counts the tuples matching the predicate conjunction
// over an HBP column, honoring ctx.
func HBPFusedCountCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options) (cnt uint64, err error) {
	return fusedCountCtx(ctx, col, preds, o, core.HBPFusedCount)
}

// fusedCountCtx is the COUNT driver around either layout's kernel.
func fusedCountCtx[C segmented](ctx context.Context, col C, preds []scan.WindowPred, o Options,
	kernel func(col C, preds []scan.WindowPred, lo, hi int, st *core.FusedStats) uint64) (cnt uint64, err error) {
	ws, start := o.statsBegin()
	parts := make([]fusedWorker, o.threads())
	_, err = forEachRangeErr(ctx, col.NumSegments(), len(parts), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		parts[w].cnt += kernel(col, preds, lo, hi, &parts[w].st)
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	cnt, fs := mergeFused(parts)
	o.fusedStatsEnd(ws, start, fs, len(preds), metrics.ExecStats{})
	return cnt, nil
}

// VBPFusedExtremeCtx computes MIN (wantMin) or MAX of the tuples matching
// the predicate conjunction over a VBP column, honoring ctx. The selected
// tuple count is returned alongside; cnt == 0 means nothing matched and v
// is meaningless. Cache-served segments contribute via per-worker scalar
// bests, merged with the reconstructed fold finalists at the end (the
// fold identities are neutral whenever cnt > 0).
func VBPFusedExtremeCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options, wantMin bool) (v uint64, cnt uint64, err error) {
	k := col.K()
	return fusedExtremeCtx(ctx, col, preds, o, wantMin, core.VBPFusedFoldExtreme,
		func() []uint64 { return core.NewVBPExtremeTemp(k, wantMin) },
		func(temps [][]uint64) uint64 { return core.VBPFinishExtreme(temps, k, wantMin) })
}

// HBPFusedExtremeCtx computes MIN (wantMin) or MAX of the tuples matching
// the predicate conjunction over an HBP column, honoring ctx; cnt == 0
// means nothing matched.
func HBPFusedExtremeCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options, wantMin bool) (v uint64, cnt uint64, err error) {
	return fusedExtremeCtx(ctx, col, preds, o, wantMin, core.HBPFusedFoldExtreme,
		func() []uint64 { return core.NewHBPExtremeTemp(col, wantMin) },
		func(temps [][]uint64) uint64 { return core.HBPFinishExtreme(col, temps, wantMin) })
}

// fusedExtremeCtx is the MIN/MAX driver around either layout's kernels:
// fold runs the fused kernel over segments [lo, hi) into one worker's
// accumulator (made by newTemp), reporting the best cache-served value, if
// any, and the selected count; finish reconstructs the fold finalist of
// the workers that ran.
func fusedExtremeCtx[C segmented](ctx context.Context, col C, preds []scan.WindowPred, o Options, wantMin bool,
	fold func(col C, preds []scan.WindowPred, temp []uint64, wantMin bool, lo, hi int, st *core.FusedStats) (best uint64, any bool, cnt uint64),
	newTemp func() []uint64, finish func(temps [][]uint64) uint64) (v, cnt uint64, err error) {
	ws, start := o.statsBegin()
	parts := make([]fusedWorker, o.threads())
	temps := make([][]uint64, len(parts))
	for w := range temps {
		temps[w] = newTemp()
	}
	bests := make([]uint64, len(parts))
	anys := make([]bool, len(parts))
	used, err := forEachRangeErr(ctx, col.NumSegments(), len(parts), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		b, a, c := fold(col, preds, temps[w], wantMin, lo, hi, &parts[w].st)
		if a && (!anys[w] || wantMin && b < bests[w] || !wantMin && b > bests[w]) {
			bests[w], anys[w] = b, true
		}
		parts[w].cnt += c
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	cnt, fs := mergeFused(parts)
	if cnt > 0 {
		v = finish(temps[:used])
		for w := 0; w < used; w++ {
			if anys[w] && (wantMin && bests[w] < v || !wantMin && bests[w] > v) {
				v = bests[w]
			}
		}
	}
	o.fusedStatsEnd(ws, start, fs, len(preds), metrics.ExecStats{})
	return v, cnt, nil
}

// VBPFusedRankCtx computes a rank statistic of the tuples matching the
// predicate conjunction over a VBP column, honoring ctx. The candidate
// vectors are built by the fused pass (no bitmap); rankOf maps the
// selected tuple count u to the 1-based rank to extract (MEDIAN passes
// (u+1)/2) and reports whether a rank is wanted at all. The radix descent
// is VBPRankCtx's.
func VBPFusedRankCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, rankOf func(u uint64) (uint64, bool), o Options) (val, cnt uint64, ok bool, err error) {
	return fusedRankCtx(ctx, col, preds, rankOf, o, core.VBPFusedCandidates, vbpDescend)
}

// HBPFusedRankCtx computes a rank statistic of the tuples matching the
// predicate conjunction over an HBP column, honoring ctx; see
// VBPFusedRankCtx for the rankOf contract. The radix descent is
// HBPRankCtx's.
func HBPFusedRankCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, rankOf func(u uint64) (uint64, bool), o Options) (val, cnt uint64, ok bool, err error) {
	return fusedRankCtx(ctx, col, preds, rankOf, o, core.HBPFusedCandidates, hbpDescend)
}

// fusedRankCtx is the rank driver around either layout: candidates is the
// fused kernel that fills the per-segment candidate vectors v and counts
// them, descend the layout's radix descent over v.
func fusedRankCtx[C segmented](ctx context.Context, col C, preds []scan.WindowPred, rankOf func(u uint64) (uint64, bool), o Options,
	candidates func(col C, preds []scan.WindowPred, v []uint64, lo, hi int, st *core.FusedStats) uint64,
	descend func(ctx context.Context, col C, v []uint64, u, r uint64, o Options, ws []metrics.ExecStats) (uint64, metrics.ExecStats, error),
) (val, cnt uint64, ok bool, err error) {
	ws, start := o.statsBegin()
	v := make([]uint64, col.NumSegments())
	parts := make([]fusedWorker, o.threads())
	_, err = forEachRangeErr(ctx, len(v), len(parts), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		parts[w].cnt += candidates(col, preds, v, lo, hi, &parts[w].st)
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	cnt, fs := mergeFused(parts)
	var extra metrics.ExecStats
	if r, want := rankOf(cnt); want && r != 0 && r <= cnt {
		if val, extra, err = descend(ctx, col, v, cnt, r, o, ws); err != nil {
			return 0, 0, false, err
		}
		ok = true
	}
	o.fusedStatsEnd(ws, start, fs, len(preds), extra)
	return val, cnt, ok, nil
}
