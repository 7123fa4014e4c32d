package parallel

import (
	"context"
	"fmt"
	"math/bits"
)

// OverflowError reports that the true SUM exceeds uint64. The drivers
// only return it from the checked 128-bit kernels, which run when
// core.SumOverflowPossible says the column could wrap; the exact total is
// Hi·2^64 + Lo. The public API layer re-wraps it into bpagg.OverflowError.
type OverflowError struct {
	Hi, Lo uint64
}

// Error implements the error interface.
func (e *OverflowError) Error() string {
	return fmt.Sprintf("parallel: sum overflows uint64 (hi=%d, lo=%d)", e.Hi, e.Lo)
}

// sumPart is one worker's SUM partial: a 128-bit (hi, lo) running total
// plus, on the fused drivers, the selected tuple count.
type sumPart struct{ hi, lo, cnt uint64 }

// sumRanges is the skeleton behind the two-phase and fused SUM drivers of
// both layouts: body aggregates segments [lo, hi) and returns a (hi, lo,
// cnt) partial, which accumulates per worker and merges in ascending
// worker order. Partials are always carried in 128 bits; the driver picks
// the unchecked or the checked kernel once per call from
// core.SumOverflowPossible, and an unchecked kernel just reports hi = 0
// (its partials cannot wrap, by the definition of that gate).
func sumRanges(ctx context.Context, nseg, threads int, body func(w, lo, hi int) (ph, pl, cnt uint64)) (hi, lo, cnt uint64, err error) {
	parts := make([]sumPart, threads)
	_, err = forEachRangeErr(ctx, nseg, threads, func(w, segLo, segHi int) error {
		ph, pl, c := body(w, segLo, segHi)
		p := &parts[w]
		var carry uint64
		p.lo, carry = bits.Add64(p.lo, pl, 0)
		p.hi += ph + carry
		p.cnt += c
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, p := range parts {
		var carry uint64
		lo, carry = bits.Add64(lo, p.lo, 0)
		hi += p.hi + carry
		cnt += p.cnt
	}
	return hi, lo, cnt, nil
}

// sum128Result maps a merged 128-bit total to the driver return contract:
// the uint64 value when it fits, *OverflowError when it does not.
func sum128Result(hi, lo uint64) (uint64, error) {
	if hi != 0 {
		return 0, &OverflowError{Hi: hi, Lo: lo}
	}
	return lo, nil
}
