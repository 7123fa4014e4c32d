package bpagg

import (
	"context"
	"fmt"

	"bpagg/internal/core"
	"bpagg/internal/parallel"
)

// Grouped is a query partitioned by the distinct values of one or more
// grouping columns. Following the paper's wide-table approach (§III,
// [11], [12]), grouping columns are materialized and dictionary-encoded,
// so GROUP BY reduces to refining the query's filter into one selection
// per distinct group key. Multi-column keys pack each column's code into
// one uint64 composite (first column in the high bits), so the columns'
// combined width must fit 64 bits.
//
// One pipeline produces that partition, in one traversal of the grouping
// columns over whatever bitmap the query's selection is — fresh,
// materialized, caller-edited or a row range's mask (DESIGN.md §12): each
// window of the first column is visited once and its filter word split
// across the codes present (a bit-tree descent on VBP, a delimiter peel
// on HBP); every further column refines those (key, word) entries; and a
// key index maps the final packed keys to groups. The result is a sparse
// segment-major run list of (group, selection word). Every per-group
// aggregate is one pass over it in the measure column's windows, NULL
// measure rows dropped on the way: counts, the banked SUM/MIN/MAX and
// COUNT(col), and MEDIAN as one radix descent for all groups at once. A
// dense bitmap is built per group only on demand (Selection). Only the
// index depends on the key width: direct-mapped up to core.DirectKeyBits
// packed bits, open-addressing hashed beyond, up to MaxSinglePassGroups
// keys.
//
// Rows NULL in a grouping column join no group. Results are bit-identical
// across key widths and thread counts, and concurrent aggregates over one
// Grouped are safe.
type Grouped struct {
	q      *queryState
	widths []int
	hp     *parallel.HashPartition
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

// ErrGroupCardinality is GroupBy's answer when the grouping columns hold
// more than MaxSinglePassGroups distinct keys under the selection. There
// is no slower tier behind it: the per-group alternative keeps one dense
// n/8-byte bitmap per group, ≥ 128 GiB at the smallest table that can
// have that many keys. Narrow the filter or group by fewer columns. The
// sentinel is wrap-stable — errors.Is matches it through the shard
// fan-out, sqlmini.Execute and any fmt.Errorf("%w") chain (pinned by the
// error-contract table test) — and bpaggd maps it to 422.
var ErrGroupCardinality = core.ErrGroupCardinality

// Strategy reports which key index this Grouped's partition used (EXPLAIN
// ANALYZE support).
func (g *Grouped) Strategy() GroupStrategy { return groupStrategy(g.widths) }

// groupByCols is the one route to a partition, shared by GroupBy and
// GroupByContext: composite width check, then the single pass.
func (v *flatView) groupByCols(ctx context.Context, cols []*Column) (*Grouped, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("bpagg: GROUP BY needs at least one column")
	}
	widths := make([]int, len(cols))
	total := 0
	for i, col := range cols {
		widths[i] = col.k
		total += col.k
	}
	if total > 64 {
		return nil, fmt.Errorf("bpagg: composite group key is %d bits wide — keys must pack into 64 bits", total)
	}
	return v.groupSinglePass(ctx, cols, widths)
}

// groupSinglePass partitions the view's selection, whatever built it,
// in one pass over cols. The access pin does not apply, here or to the
// grouped aggregates (see Access). A key count past the budget is
// ErrGroupCardinality.
func (v *flatView) groupSinglePass(ctx context.Context, cols []*Column, widths []int) (*Grouped, error) {
	o := execOptions(v.execs)
	base := v.Selection().b
	// A row NULL in a grouping column joins no group. The copy is made
	// only when such a column exists and the selection is the query's kept
	// one; a range view's is already its own.
	owned := v.ranged
	gcols := make([]parallel.GroupCol, len(cols))
	for i, col := range cols {
		gcols[i] = groupCol(col)
		if col.nulls == nil {
			continue
		}
		if !owned {
			base, owned = base.Clone(), true
		}
		base.AndNot(col.nulls)
	}
	hp, err := parallel.HashGroupPartitionCtx(ctx, gcols, base, cols[0].Len(), maxHashGroups, o.par)
	if err != nil {
		return nil, wrapExecErr(err)
	}
	return &Grouped{q: v.queryState, widths: widths, hp: hp}, nil
}

// GroupBy partitions the view's current selection by the distinct
// values of the named columns. With several columns the group key is the
// packed composite of the columns' codes (see Keys/KeyParts); the
// combined key width must fit 64 bits. More than MaxSinglePassGroups
// distinct keys panics with ErrGroupCardinality (use GroupByContext to
// receive it as an error).
func (v *flatView) GroupBy(columns ...string) *Grouped {
	g, err := v.GroupByContext(nil, columns...)
	fusedMust(err)
	return g
}

// Len returns the number of groups.
func (g *Grouped) Len() int { return len(g.hp.Keys) }

// Keys returns the distinct group keys in ascending order. With one
// grouping column a key is the column's code; with several it is the
// packed composite (first column in the high bits). All per-group result
// slices below are parallel to it.
func (g *Grouped) Keys() []uint64 {
	return append([]uint64(nil), g.hp.Keys...)
}

// KeyParts unpacks group i's key into one code per grouping column.
func (g *Grouped) KeyParts(i int) []uint64 {
	return unpackKey(g.hp.Keys[i], g.widths)
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

// Selection returns group i's row bitmap (the query filter intersected
// with key equality). The partition keeps selections sparse, so every
// call builds a fresh n/8-byte bitmap the caller owns and may edit; prefer
// the bulk aggregates, which never materialize.
func (g *Grouped) Selection(i int) *Bitmap {
	return &Bitmap{b: g.hp.Materialize(i)}
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
func (g *Grouped) opts() parallel.Options { return execOptions(g.q.execs).par }

// Count returns each group's row count. The counts are recorded into
// the query's stats collector as one aggregate per group, matching the
// other per-group aggregates; they are served from the counts tallied
// during partitioning.
func (g *Grouped) Count() []uint64 {
	out, err := g.CountContext(nil)
	fusedMust(err)
	return out
}

// Sum aggregates SUM of the named column per group in one pass over the
// measure column. A group whose sum exceeds uint64 panics with an
// *OverflowError naming it (use SumContext to receive it as an error).
func (g *Grouped) Sum(column string) []uint64 {
	out, err := g.SumContext(nil, column)
	fusedMust(err)
	return out
}

// Min aggregates MIN of the named column per group. Every group is
// non-empty by construction, so no ok flags are needed.
func (g *Grouped) Min(column string) []uint64 {
	out, err := g.MinContext(nil, column)
	fusedMust(err)
	return out
}

// Max aggregates MAX of the named column per group.
func (g *Grouped) Max(column string) []uint64 {
	out, err := g.MaxContext(nil, column)
	fusedMust(err)
	return out
}

// Median aggregates the lower MEDIAN of the named column per group.
func (g *Grouped) Median(column string) []uint64 {
	out, err := g.MedianContext(nil, column)
	fusedMust(err)
	return out
}

// Avg aggregates AVG of the named column per group. Like Sum, a group
// whose running sum exceeds uint64 panics with an *OverflowError (use
// AvgContext to receive it as an error).
func (g *Grouped) Avg(column string) []float64 {
	out, err := g.AvgContext(nil, column)
	fusedMust(err)
	return out
}
