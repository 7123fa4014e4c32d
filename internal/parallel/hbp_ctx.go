package parallel

import (
	"context"

	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
)

// hbpDescend is the HBP radix descent (Algorithm 6's loop) the rank
// driver runs over its candidate windows v — cut from a filter
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
