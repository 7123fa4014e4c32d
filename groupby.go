package bpagg

import (
	"context"
	"slices"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/parallel"
)

// groupPart is one part's GROUP BY partition, which the store's Grouped
// merges: the part's query state and the partition's key list, per-group
// counts and run list or banks.
type groupPart struct {
	q  *queryState
	hp *parallel.HashPartition
	// named lists the aggregates a measured partition was built for; nil
	// for a GroupByContext partition.
	named []aggCall
}

// GroupStrategy identifies the key index a Grouped's partition used.
type GroupStrategy int

const (
	// GroupDirect is the direct-mapped index (packed key width ≤
	// core.DirectKeyBits).
	GroupDirect GroupStrategy = iota
	// GroupHash is the open-addressing hashed index.
	GroupHash
)

// String returns "direct" or "hash".
func (s GroupStrategy) String() string {
	if s == GroupDirect {
		return "direct"
	}
	return "hash"
}

// groupStrategy names the key index from the grouping columns' packed
// code width — the only input that decides it, and all it decides.
func groupStrategy(widths []int) GroupStrategy {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total <= core.DirectKeyBits {
		return GroupDirect
	}
	return GroupHash
}

// MaxSinglePassGroups is the partition's key budget: a GROUP BY that
// discovers more distinct keys fails with ErrGroupCardinality.
const MaxSinglePassGroups = core.MaxHashGroups

// maxHashGroups is the runtime key budget. It equals MaxSinglePassGroups
// except in tests that lower it to reach the budget error without
// building 2^20 distinct keys.
var maxHashGroups = core.MaxHashGroups

// ErrGroupCardinality is GroupByContext's answer when the grouping columns hold
// more than MaxSinglePassGroups distinct keys under the selection. There
// is no slower tier behind it: the per-group alternative keeps one dense
// n/8-byte bitmap per group, ≥ 128 GiB at the smallest table that can
// have that many keys. Narrow the filter or group by fewer columns. The
// sentinel is wrap-stable — errors.Is matches it through the shard
// fan-out, sqlmini.Execute and any fmt.Errorf("%w") chain (pinned by the
// error-contract table test) — and bpaggd maps it to 422.
var ErrGroupCardinality = core.ErrGroupCardinality

// groupBy partitions the part's rows in one pass over the grouping
// columns, which the store resolved and whose packed width it checked
// (fanOut.groupWidths). It banks the named SUM/MIN/MAX/COUNT(col) as it
// goes, and reads the filter the plan chose: when it keeps the run list
// (for a GroupByContext partition, named nil, or a named rank), the view's
// selection as a bitmap, which the list's words then carry; else the
// clauses' predicates when the plan fuses the pass, or that bitmap. A key
// count past the budget is ErrGroupCardinality.
func (v *flatView) groupBy(ctx context.Context, columns []string, named []aggCall) (*groupPart, error) {
	cols := make([]*Column, len(columns))
	for i, column := range columns {
		cols[i] = v.t.cols[column]
	}
	o := execOptions(v.execs)
	gcols := make([]parallel.GroupCol, len(cols))
	for i, col := range cols {
		gcols[i] = groupCol(col)
	}
	pass := parallel.GroupPass{Cols: gcols, N: cols[0].Len(), Limit: maxHashGroups, Chunk: groupChunkRows}
	for _, c := range named {
		col := v.t.cols[c.column]
		switch m := measureOf(col, c.op); {
		case c.isRank(), c.op == opCount && col.nulls == nil, slices.Contains(pass.Measures, m):
			// read off the run list, the partition's own counts, or banked already
		default:
			pass.Measures = append(pass.Measures, m)
		}
	}
	switch {
	case v.keep:
		pass.Keep = v.groupBits(cols)
	case v.fused:
		pass.Filter = core.Preds(v.fusedPlan())
	default:
		pass.Filter = core.Bits(v.groupBits(cols))
	}
	hp, err := parallel.GroupPassCtx(ctx, pass, o)
	if err != nil {
		return nil, wrapExecErr(err)
	}
	return &groupPart{q: v.queryState, hp: hp, named: named}, nil
}

// measureOf is aggregate op (COUNT, SUM, MIN or MAX) over col as a
// grouped pass's measure.
func measureOf(col *Column, op aggOp) parallel.Measure {
	return parallel.Measure{Col: groupCol(col), Op: aggTable[op].measure}
}

// groupChunkRows is the grouped pass's least chunk (0: the driver's
// default); tests shrink it so small tables cross many chunks.
var groupChunkRows = 0

// groupBits is the view's selection — fresh, materialized or a range's
// filter ∧ mask — without the rows NULL in a grouping column,
// which join no group. The copy is made only when such a column exists and
// the selection is the query's kept one; a range view's is already its own.
func (v *flatView) groupBits(cols []*Column) *bitvec.Bitmap {
	base, owned := v.selected().b, v.ranged
	for _, col := range cols {
		if col.nulls == nil {
			continue
		}
		if !owned {
			base, owned = base.Clone(), true
		}
		base.AndNot(col.nulls)
	}
	return base
}

// unpackKey splits a packed composite key into one code per grouping
// column (first column in the high bits).
func unpackKey(key uint64, widths []int) []uint64 {
	parts := make([]uint64, len(widths))
	for j := len(widths) - 1; j >= 0; j-- {
		w := uint(widths[j])
		parts[j] = key & (1<<w - 1)
		key >>= w
	}
	return parts
}

// groupCol wraps a grouping or measure column, with its NULL rows, for
// the grouped drivers.
func groupCol(col *Column) parallel.GroupCol {
	if col.layout == VBP {
		return parallel.GroupCol{V: col.v, Nulls: col.nulls}
	}
	return parallel.GroupCol{H: col.h, Nulls: col.nulls}
}

// opts resolves the query's execution options for the grouped drivers.
func (g *groupPart) opts() parallel.Options { return execOptions(g.q.execs) }
