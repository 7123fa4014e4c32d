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

// fusedStatsEnd merges the per-worker fused kernel counters into the
// ExecStats schema (scan-side and aggregate-side at once) and records a
// single aggregate invocation.
func (o Options) fusedStatsEnd(ws []metrics.ExecStats, start time.Time, fss []core.FusedStats, npreds int, extra metrics.ExecStats) {
	if o.Stats == nil {
		return
	}
	var fs core.FusedStats
	for i := range fss {
		fs = fs.Add(fss[i])
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
	fss := make([]core.FusedStats, o.threads())
	hi, lo, cnt, err := sumRanges(ctx, nseg, o.threads(), func(w, segLo, segHi int) (uint64, uint64, uint64) {
		t0 := statsNow(ws)
		ph, pl, c := kernel(segLo, segHi, &fss[w])
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return ph, pl, c
	})
	if err != nil {
		return 0, 0, err
	}
	o.fusedStatsEnd(ws, start, fss, npreds, metrics.ExecStats{})
	if sum, err = sum128Result(hi, lo); err != nil {
		return 0, 0, err
	}
	return sum, cnt, nil
}

// VBPFusedCountCtx counts the tuples matching the predicate conjunction
// over a VBP column, honoring ctx. No aggregate words are touched.
func VBPFusedCountCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options) (cnt uint64, err error) {
	ws, start := o.statsBegin()
	nseg := col.NumSegments()
	n := o.threads()
	cnts := make([]uint64, n)
	fss := make([]core.FusedStats, n)
	_, err = forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
		t0 := statsNow(ws)
		cnts[w] += core.VBPFusedCount(col, preds, lo, hi, &fss[w])
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for w := 0; w < n; w++ {
		cnt += cnts[w]
	}
	o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
	return cnt, nil
}

// HBPFusedCountCtx counts the tuples matching the predicate conjunction
// over an HBP column, honoring ctx.
func HBPFusedCountCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options) (cnt uint64, err error) {
	ws, start := o.statsBegin()
	nseg := col.NumSegments()
	n := o.threads()
	cnts := make([]uint64, n)
	fss := make([]core.FusedStats, n)
	_, err = forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
		t0 := statsNow(ws)
		cnts[w] += core.HBPFusedCount(col, preds, lo, hi, &fss[w])
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for w := 0; w < n; w++ {
		cnt += cnts[w]
	}
	o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
	return cnt, nil
}

// VBPFusedExtremeCtx computes MIN (wantMin) or MAX of the tuples matching
// the predicate conjunction over a VBP column, honoring ctx. The selected
// tuple count is returned alongside; cnt == 0 means nothing matched and v
// is meaningless. Cache-served segments contribute via per-worker scalar
// bests, merged with the reconstructed fold finalists at the end (the
// fold identities are neutral whenever cnt > 0).
func VBPFusedExtremeCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, o Options, wantMin bool) (v uint64, cnt uint64, err error) {
	ws, start := o.statsBegin()
	k := col.K()
	nseg := col.NumSegments()
	n := o.threads()
	temps := make([][]uint64, n)
	for w := range temps {
		temps[w] = core.NewVBPExtremeTemp(k, wantMin)
	}
	bests := make([]uint64, n)
	anys := make([]bool, n)
	cnts := make([]uint64, n)
	fss := make([]core.FusedStats, n)
	used, err := forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
		t0 := statsNow(ws)
		b, a, c := core.VBPFusedFoldExtreme(col, preds, temps[w], wantMin, lo, hi, &fss[w])
		if a && (!anys[w] || wantMin && b < bests[w] || !wantMin && b > bests[w]) {
			bests[w] = b
			anys[w] = true
		}
		cnts[w] += c
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for w := 0; w < n; w++ {
		cnt += cnts[w]
	}
	if cnt == 0 {
		o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
		return 0, 0, nil
	}
	v = core.VBPFinishExtreme(temps[:used], k, wantMin)
	for w := 0; w < used; w++ {
		if anys[w] && (wantMin && bests[w] < v || !wantMin && bests[w] > v) {
			v = bests[w]
		}
	}
	o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
	return v, cnt, nil
}

// HBPFusedExtremeCtx computes MIN (wantMin) or MAX of the tuples matching
// the predicate conjunction over an HBP column, honoring ctx; cnt == 0
// means nothing matched.
func HBPFusedExtremeCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, o Options, wantMin bool) (v uint64, cnt uint64, err error) {
	ws, start := o.statsBegin()
	nseg := col.NumSegments()
	n := o.threads()
	temps := make([][]uint64, n)
	for w := range temps {
		temps[w] = core.NewHBPExtremeTemp(col, wantMin)
	}
	bests := make([]uint64, n)
	anys := make([]bool, n)
	cnts := make([]uint64, n)
	fss := make([]core.FusedStats, n)
	used, err := forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
		t0 := statsNow(ws)
		b, a, c := core.HBPFusedFoldExtreme(col, preds, temps[w], wantMin, lo, hi, &fss[w])
		if a && (!anys[w] || wantMin && b < bests[w] || !wantMin && b > bests[w]) {
			bests[w] = b
			anys[w] = true
		}
		cnts[w] += c
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for w := 0; w < n; w++ {
		cnt += cnts[w]
	}
	if cnt == 0 {
		o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
		return 0, 0, nil
	}
	v = core.HBPFinishExtreme(col, temps[:used], wantMin)
	for w := 0; w < used; w++ {
		if anys[w] && (wantMin && bests[w] < v || !wantMin && bests[w] > v) {
			v = bests[w]
		}
	}
	o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
	return v, cnt, nil
}

// VBPFusedRankCtx computes a rank statistic of the tuples matching the
// predicate conjunction over a VBP column, honoring ctx. The candidate
// vectors are built by the fused pass (no bitmap); rankOf maps the
// selected tuple count u to the 1-based rank to extract (MEDIAN passes
// (u+1)/2) and reports whether a rank is wanted at all. The radix descent
// then runs the same per-bit rendezvous as VBPRankCtx.
func VBPFusedRankCtx(ctx context.Context, col *vbp.Column, preds []scan.WindowPred, rankOf func(u uint64) (uint64, bool), o Options) (val, cnt uint64, ok bool, err error) {
	ws, start := o.statsBegin()
	nseg := col.NumSegments()
	n := o.threads()
	v := make([]uint64, nseg)
	cnts := make([]uint64, n)
	fss := make([]core.FusedStats, n)
	_, err = forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
		t0 := statsNow(ws)
		cnts[w] += core.VBPFusedCandidates(col, preds, v, lo, hi, &fss[w])
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	var u uint64
	for w := 0; w < n; w++ {
		u += cnts[w]
	}
	cnt = u
	r, want := rankOf(u)
	if !want || r == 0 || r > u {
		o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
		return 0, cnt, false, nil
	}
	var extra metrics.ExecStats
	if ws != nil {
		extra.SegmentsAggregated = core.VBPLiveCandidates(v, 0, nseg)
	}
	k := col.K()
	partials := make([]uint64, n)
	var m uint64
	for p := 0; p < k; p++ {
		for i := range partials {
			partials[i] = 0
		}
		_, err := forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
			t0 := statsNow(ws)
			partials[w] += core.VBPRankCount(col, v, p, lo, hi)
			if ws != nil {
				// Charge the whole round here: refine reads the same
				// bit-position word for the same live segments.
				vbpCollectRank(ws, w, v, lo, hi, t0)
			}
			return nil
		})
		if err != nil {
			return 0, 0, false, err
		}
		var c uint64
		for _, pc := range partials {
			c += pc
		}
		keepOnes := u-c < r
		if keepOnes {
			m |= 1 << uint(k-1-p)
			r -= u - c
			u = c
		} else {
			u -= c
		}
		extra.RadixRounds++
		_, err = forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
			t0 := statsNow(ws)
			core.VBPRankRefine(col, v, p, keepOnes, lo, hi)
			if ws != nil {
				busyOnly(ws, w, t0)
			}
			return nil
		})
		if err != nil {
			return 0, 0, false, err
		}
	}
	o.fusedStatsEnd(ws, start, fss, len(preds), extra)
	return m, cnt, true, nil
}

// HBPFusedRankCtx computes a rank statistic of the tuples matching the
// predicate conjunction over an HBP column, honoring ctx; see
// VBPFusedRankCtx for the rankOf contract. The radix descent runs the
// same per-chunk histogram rendezvous as HBPRankCtx.
func HBPFusedRankCtx(ctx context.Context, col *hbp.Column, preds []scan.WindowPred, rankOf func(u uint64) (uint64, bool), o Options) (val, cnt uint64, ok bool, err error) {
	ws, start := o.statsBegin()
	nseg := col.NumSegments()
	n := o.threads()
	v := make([]uint64, nseg)
	cnts := make([]uint64, n)
	fss := make([]core.FusedStats, n)
	_, err = forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
		t0 := statsNow(ws)
		cnts[w] += core.HBPFusedCandidates(col, preds, v, lo, hi, &fss[w])
		if ws != nil {
			busyOnly(ws, w, t0)
		}
		return nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	var u uint64
	for w := 0; w < n; w++ {
		u += cnts[w]
	}
	cnt = u
	r, want := rankOf(u)
	if !want || r == 0 || r > u {
		o.fusedStatsEnd(ws, start, fss, len(preds), metrics.ExecStats{})
		return 0, cnt, false, nil
	}
	var extra metrics.ExecStats
	if ws != nil {
		var live uint64
		for seg := 0; seg < nseg; seg++ {
			if v[seg] != 0 {
				live++
			}
		}
		extra.SegmentsAggregated = live
	}
	b := col.NumGroups()
	tau := col.Tau()
	chunks, histBits := core.HBPRankChunks(tau, u)

	workerHists := make([][]uint64, n)
	for w := range workerHists {
		workerHists[w] = make([]uint64, 1<<uint(histBits))
	}
	var m uint64
	for g := 0; g < b; g++ {
		for ci, ch := range chunks {
			shift, width := ch[0], ch[1]
			bins := 1 << uint(width)
			last := g == b-1 && ci == len(chunks)-1
			// Histograms are zeroed here, not inside the worker body: a
			// worker sees its range in workerBlock slices and must
			// accumulate across them.
			for w := range workerHists {
				h := workerHists[w][:bins]
				for i := range h {
					h[i] = 0
				}
			}
			used, err := forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
				t0 := statsNow(ws)
				core.HBPHistogramChunk(col, v, g, shift, width, lo, hi, workerHists[w][:bins])
				if ws != nil {
					// Charge the whole round here (histogram plus, unless
					// this is the final round, the refine pass over the
					// same live sub-segments).
					factor := uint64(2)
					if last {
						factor = 1
					}
					hbpCollectRank(ws, w, col, v, factor, lo, hi, t0)
				}
				return nil
			})
			if err != nil {
				return 0, 0, false, err
			}
			// Merge worker histograms and locate the bin containing rank r.
			var cum uint64
			bin := bins - 1
			for i := 0; i < bins; i++ {
				var h uint64
				for w := 0; w < used; w++ {
					h += workerHists[w][i]
				}
				if cum+h >= r {
					bin = i
					break
				}
				cum += h
			}
			r -= cum
			m = m<<uint(width) | uint64(bin)
			extra.RadixRounds++
			if last {
				break
			}
			_, err = forEachRangeErr(ctx, nseg, n, func(w, lo, hi int) error {
				t0 := statsNow(ws)
				core.HBPRankRefineChunk(col, v, g, shift, width, uint64(bin), lo, hi)
				if ws != nil {
					busyOnly(ws, w, t0)
				}
				return nil
			})
			if err != nil {
				return 0, 0, false, err
			}
		}
	}
	o.fusedStatsEnd(ws, start, fss, len(preds), extra)
	return m, cnt, true, nil
}
