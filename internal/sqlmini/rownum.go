package sqlmini

import (
	"math"

	"bpagg/internal/catalog"
)

// rownum pseudo-column: WHERE rownum BETWEEN a AND b restricts the query
// to rows [a, b] by 0-based position, executed as the store query's
// Range (bpagg.ShardedQuery.Range, DESIGN.md §16): shards outside the
// range prune, and when nothing else filters the rows the ungrouped
// aggregates answer from the prefix-sum index in O(1) each; otherwise the
// range is one more conjunctive mask inside each shard. A catalog column
// actually named "rownum" shadows the pseudo-column, so existing schemas
// keep their meaning.

const rownumName = "rownum"

// rowRange is a half-open row-position range [lo, hi).
type rowRange struct{ lo, hi int }

// clampRowBound narrows a parsed literal to a row index. Bounds beyond
// 2^53 exceed float64's integer range (and any table); they clamp rather
// than overflow the int conversion, and the engine clips to the row count
// anyway.
func clampRowBound(f float64) int {
	const max = 1 << 53
	if f < 0 {
		return -1
	}
	if f > max {
		return max
	}
	return int(f)
}

// splitRownum partitions the WHERE list into a row-position range and the
// remaining conditions. rng is nil when no rownum condition appears (or a
// real catalog column shadows the name); several rownum conditions
// intersect. Only BETWEEN with numeric bounds is accepted — row position
// is ordinal, so equality and one-sided forms are deliberately excluded
// rather than silently misread.
func splitRownum(cat *catalog.Catalog, conds []Condition) (*rowRange, []Condition, error) {
	if cat.Spec(rownumName) != nil {
		return nil, conds, nil
	}
	var rng *rowRange
	rest := make([]Condition, 0, len(conds))
	for _, cond := range conds {
		if cond.Column != rownumName {
			rest = append(rest, cond)
			continue
		}
		if cond.Op != OpBetween || len(cond.Lits) < 2 {
			return nil, nil, badf("sql: rownum supports only BETWEEN")
		}
		if cond.Lits[0].IsString || cond.Lits[1].IsString {
			return nil, nil, badf("sql: rownum bounds must be numeric")
		}
		// BETWEEN is inclusive over integer positions: fractional bounds
		// tighten inward (ceil the low, floor the high), and the inclusive
		// high becomes the half-open hi.
		lo := clampRowBound(math.Ceil(cond.Lits[0].Num))
		if lo < 0 {
			lo = 0
		}
		hi := lo
		if h := clampRowBound(math.Floor(cond.Lits[1].Num)); h >= lo {
			hi = h + 1
		}
		if rng == nil {
			rng = &rowRange{lo: lo, hi: hi}
			continue
		}
		if lo > rng.lo {
			rng.lo = lo
		}
		if hi < rng.hi {
			rng.hi = hi
		}
		if rng.hi < rng.lo {
			rng.hi = rng.lo
		}
	}
	return rng, rest, nil
}
