package parallel

import (
	"context"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
)

// HBPSumCtx computes SUM over an HBP column, honoring ctx; the overflow
// contract is VBPSumCtx's.
func HBPSumCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options) (uint64, error) {
	ws, start := o.statsBegin()
	checked := core.SumOverflowPossible(col.K(), col.Len())
	hi, lo, _, err := sumRanges(ctx, col.NumSegments(), o.threads(), func(w, segLo, segHi int) (ph, pl, _ uint64) {
		t0 := statsNow(ws)
		if checked {
			ph, pl = core.HBPSumRange128(col, f, segLo, segHi)
		} else {
			pl = core.HBPSumRange(col, f, segLo, segHi)
		}
		if ws != nil {
			hbpCollectDense(ws, w, col, f, segLo, segHi, t0)
		}
		return ph, pl, 0
	})
	if err != nil {
		return 0, err
	}
	o.statsEnd(ws, start, metrics.ExecStats{})
	return sum128Result(hi, lo)
}

// HBPMinCtx computes MIN over an HBP column, honoring ctx; ok is false
// when no tuple passes the filter.
func HBPMinCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return hbpExtremeCtx(ctx, col, f, o, true)
}

// HBPMaxCtx computes MAX over an HBP column, honoring ctx.
func HBPMaxCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return hbpExtremeCtx(ctx, col, f, o, false)
}

func hbpExtremeCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, o Options, wantMin bool) (uint64, bool, error) {
	if !f.Any() {
		return 0, false, nil
	}
	ws, start := o.statsBegin()
	nseg := col.NumSegments()
	temps := make([][]uint64, o.threads())
	for w := range temps {
		temps[w] = core.NewHBPExtremeTemp(col, wantMin)
	}
	used, err := forEachRangeErr(ctx, nseg, o.threads(), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		core.HBPFoldExtreme(col, f, temps[w], wantMin, lo, hi)
		if ws != nil {
			hbpCollectDense(ws, w, col, f, lo, hi, t0)
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	v := core.HBPFinishExtreme(col, temps[:used], wantMin)
	o.statsEnd(ws, start, metrics.ExecStats{})
	return v, true, nil
}

// HBPRankCtx computes the r-th smallest filtered value, honoring ctx.
// Cancellation is checked at every histogram rendezvous (per bit-group
// chunk) in addition to the per-block checks inside each scan.
func HBPRankCtx(ctx context.Context, col *hbp.Column, f *bitvec.Bitmap, r uint64, o Options) (uint64, bool, error) {
	u := core.Count(f)
	if r == 0 || r > u {
		return 0, false, nil
	}
	ws, start := o.statsBegin()
	m, extra, err := hbpDescend(ctx, col, core.NewHBPCandidates(col, f, col.NumSegments()), u, r, o, ws)
	if err != nil {
		return 0, false, err
	}
	o.statsEnd(ws, start, extra)
	return m, true, nil
}

// hbpDescend is the HBP radix descent (Algorithm 6's loop) both rank
// drivers run over their candidate windows v — copied from a filter
// bitmap, or built by a fused pass: one rendezvous per bit-group chunk on
// the merged histogram of the u live candidates, which locates the bin of
// the r-th smallest and narrows the candidates to it. extra carries the
// descent's driver-level counters when ws collects.
func hbpDescend(ctx context.Context, col *hbp.Column, v []uint64, u, r uint64, o Options, ws []metrics.ExecStats) (m uint64, extra metrics.ExecStats, err error) {
	nseg := len(v)
	if ws != nil {
		for _, cand := range v {
			if cand != 0 {
				extra.SegmentsAggregated++
			}
		}
	}
	b := col.NumGroups()
	chunks, histBits := core.HBPRankChunks(col.Tau(), u)

	workerHists := make([][]uint64, o.threads())
	for w := range workerHists {
		workerHists[w] = make([]uint64, 1<<uint(histBits))
	}
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
			used, err := forEachRangeErr(ctx, nseg, o.threads(), func(w, lo, hi int) error {
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
				return 0, extra, err
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
			_, err = forEachRangeErr(ctx, nseg, o.threads(), func(w, lo, hi int) error {
				t0 := statsNow(ws)
				core.HBPRankRefineChunk(col, v, g, shift, width, uint64(bin), lo, hi)
				if ws != nil {
					busyOnly(ws, w, t0)
				}
				return nil
			})
			if err != nil {
				return 0, extra, err
			}
		}
	}
	return m, extra, nil
}
