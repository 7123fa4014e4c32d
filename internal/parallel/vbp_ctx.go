package parallel

import (
	"context"

	"bpagg/internal/core"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
)

// Every driver runs through forEachRangeErr, so cancellation is observed
// between segment blocks (and at each radix rendezvous for rank) and
// worker panics come back as *PanicError, uniformly at any thread count.
// A worker body may run several times with sub-ranges, so every partial
// and every stats update accumulates.

// vbpDescend is the VBP radix descent (Algorithm 3's loop) both rank
// driver runs over its candidate vectors v — cut from a filter bitmap,
// or built by a fused pass: one rendezvous per bit position on the
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
