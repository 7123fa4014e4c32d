package core

import (
	"math/bits"

	"bpagg/internal/word"
)

// SumOverflowPossible reports whether SUM over any selection of n k-bit
// codes could exceed uint64: n·(2^k−1) ≥ 2^64. The test is column-level
// (it ignores the actual selection and data), so a true result only means
// the checked 128-bit kernels must run — they report overflow exactly.
// A false result is a proof: no selection of the column can wrap, and the
// unchecked kernels stay on their fast path.
func SumOverflowPossible(k, n int) bool {
	if k <= 0 || n <= 0 {
		return false
	}
	hi, _ := bits.Mul64(uint64(n), word.LowMask(k))
	return hi != 0
}

// SumCacheExactK is the widest code width at which a per-segment sum
// cache entry is trusted by the checked kernels: a segment holds at most
// 64 values, so its true sum is below 2^(k+6), and the uint64 zSum cannot
// itself have wrapped when k ≤ 58. For wider codes the checked kernels
// recompute the segment instead of serving the cache. Exported for the
// range index builder, which applies the same trust bound.
const SumCacheExactK = 58

// cacheExact reports whether the SUM kernels may serve a window from the
// per-segment sum cache: when k ≤ SumCacheExactK, or when no selection of
// the column's n values can wrap, so neither can one segment's entry.
func cacheExact(k, n int) bool {
	return k <= SumCacheExactK || !SumOverflowPossible(k, n)
}

// add128, addShift128 and add128Shifted are the 128-bit accumulator
// primitives, shared with the prefix-sum range index via internal/word.
func add128(hi, lo, v uint64) (uint64, uint64) {
	return word.Add128(hi, lo, v)
}

func addShift128(hi, lo, v uint64, s uint) (uint64, uint64) {
	return word.AddShift128(hi, lo, v, s)
}

func add128Shifted(hi, lo, vhi, vlo uint64, s uint) (uint64, uint64) {
	return word.Add128Shifted(hi, lo, vhi, vlo, s)
}
