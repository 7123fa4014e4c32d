package parallel

import (
	"context"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
)

// Every driver runs through forEachRangeErr, so cancellation is observed
// between segment blocks (and at each radix rendezvous for rank) and
// worker panics come back as *PanicError, uniformly at any thread count.
// A worker body may run several times with sub-ranges, so every partial
// and every stats update accumulates (the collect helpers use +=).

// VBPSumCtx computes SUM over a VBP column, honoring ctx. A total past
// uint64 on a column where that is possible returns *OverflowError.
func VBPSumCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options) (uint64, error) {
	ws, start := o.statsBegin()
	checked := core.SumOverflowPossible(col.K(), col.Len())
	hi, lo, _, err := sumRanges(ctx, col.NumSegments(), o.threads(), func(w, segLo, segHi int) (ph, pl, _ uint64) {
		t0 := statsNow(ws)
		if checked {
			ph, pl = core.VBPSumRange128(col, f, segLo, segHi)
		} else {
			pl = core.VBPSumRange(col, f, segLo, segHi)
		}
		if ws != nil {
			vbpCollectDense(ws, w, col, f, segLo, segHi, t0)
		}
		return ph, pl, 0
	})
	if err != nil {
		return 0, err
	}
	o.statsEnd(ws, start, metrics.ExecStats{})
	return sum128Result(hi, lo)
}

// VBPMinCtx computes MIN over a VBP column, honoring ctx; ok is false
// when no tuple passes the filter.
func VBPMinCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return vbpExtremeCtx(ctx, col, f, o, true)
}

// VBPMaxCtx computes MAX over a VBP column, honoring ctx.
func VBPMaxCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options) (uint64, bool, error) {
	return vbpExtremeCtx(ctx, col, f, o, false)
}

func vbpExtremeCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, o Options, wantMin bool) (uint64, bool, error) {
	if !f.Any() {
		return 0, false, nil
	}
	ws, start := o.statsBegin()
	k := col.K()
	nseg := col.NumSegments()
	temps := make([][]uint64, o.threads())
	for w := range temps {
		temps[w] = core.NewVBPExtremeTemp(k, wantMin)
	}
	used, err := forEachRangeErr(ctx, nseg, o.threads(), func(w, lo, hi int) error {
		t0 := statsNow(ws)
		core.VBPFoldExtreme(col, f, temps[w], wantMin, lo, hi)
		if ws != nil {
			vbpCollectDense(ws, w, col, f, lo, hi, t0)
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	v := core.VBPFinishExtreme(temps[:used], k, wantMin)
	o.statsEnd(ws, start, metrics.ExecStats{})
	return v, true, nil
}

// VBPRankCtx computes the r-th smallest filtered value, honoring ctx.
// Cancellation is checked at every per-bit rendezvous in addition to the
// per-block checks inside each scan, so even a mid-refinement deadline
// is honored within one radix step.
func VBPRankCtx(ctx context.Context, col *vbp.Column, f *bitvec.Bitmap, r uint64, o Options) (uint64, bool, error) {
	u := core.Count(f)
	if r == 0 || r > u {
		return 0, false, nil
	}
	ws, start := o.statsBegin()
	m, extra, err := vbpDescend(ctx, col, core.NewVBPCandidates(f, col.NumSegments()), u, r, o, ws)
	if err != nil {
		return 0, false, err
	}
	o.statsEnd(ws, start, extra)
	return m, true, nil
}

// vbpDescend is the VBP radix descent (Algorithm 3's loop) both rank
// drivers run over their candidate vectors v — copied from a filter
// bitmap, or built by a fused pass: one rendezvous per bit position on the
// global count of the u live candidates with that bit set, which decides
// the bit of the r-th smallest and which candidates survive. extra carries
// the descent's driver-level counters when ws collects.
func vbpDescend(ctx context.Context, col *vbp.Column, v []uint64, u, r uint64, o Options, ws []metrics.ExecStats) (m uint64, extra metrics.ExecStats, err error) {
	nseg, k := len(v), col.K()
	if ws != nil {
		extra.SegmentsAggregated = core.VBPLiveCandidates(v, 0, nseg)
	}
	partials := make([]uint64, o.threads())
	for p := 0; p < k; p++ {
		for i := range partials {
			partials[i] = 0
		}
		_, err := forEachRangeErr(ctx, nseg, o.threads(), func(w, lo, hi int) error {
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
			return 0, extra, err
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
		_, err = forEachRangeErr(ctx, nseg, o.threads(), func(w, lo, hi int) error {
			t0 := statsNow(ws)
			core.VBPRankRefine(col, v, p, keepOnes, lo, hi)
			if ws != nil {
				busyOnly(ws, w, t0)
			}
			return nil
		})
		if err != nil {
			return 0, extra, err
		}
	}
	return m, extra, nil
}
