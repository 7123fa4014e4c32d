package bpagg

import (
	"context"
	"errors"
	"fmt"

	"bpagg/internal/bitvec"
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
// Three execution strategies produce that partition (DESIGN.md §12):
//
//   - Direct (single column, key width ≤ core.DirectKeyBits): each
//     64-value segment is visited once and the grouping column's
//     bit-tree is descended to split the segment's filter word across
//     all group keys simultaneously, banking into a direct-mapped dense
//     bank. One traversal serves every group; banked aggregate kernels
//     then answer SUM/MIN/MAX for all groups in one traversal of the
//     measure column too.
//   - Hash (wider or composite keys, up to MaxSinglePassGroups keys):
//     the same one-traversal partition, banking into per-worker
//     open-addressing hash tables with sparse per-key (segment, word)
//     runs, merged by sorted key order. Selections stay sparse — counts
//     and the banked aggregates come straight off the merged run list,
//     and a dense bitmap is materialized per group only on demand.
//   - Legacy per-group: repeated MIN walks the distinct values in
//     ascending order, one BIT-PARALLEL-EQUAL scan per key intersected
//     with the filter (nested per column for composite keys). Each step
//     needs only the equality scan of the freshly found key — since that
//     key is the minimum of the residual, removing its rows (AndNot)
//     leaves exactly the strictly-greater residual the next step needs,
//     so discovery costs G scans for G groups, not 2G.
//
// GroupBy picks the strategy at plan time: direct or hash when the query
// qualifies (same spirit as the Query.Fused gate: no user bitmap, no
// NULLs on the grouping columns, access not pinned to Reconstruct), legacy
// otherwise or past MaxSinglePassGroups discovered keys. Results are
// bit-identical across strategies and thread counts.
type Grouped struct {
	q        *Query
	cols     []*Column
	widths   []int
	keys     []uint64
	sels     []*Bitmap // dense selections (direct + legacy); nil for hash
	counts   []uint64  // per-group row counts: tallied by the hash partition, popcounted on first use otherwise
	hp       *parallel.HashPartition
	strategy GroupStrategy
}

// GroupStrategy identifies which partition strategy built a Grouped.
type GroupStrategy int

const (
	// GroupLegacy is the per-group MIN+equality walk.
	GroupLegacy GroupStrategy = iota
	// GroupDirect is the single-pass direct-mapped bank (key width ≤
	// core.DirectKeyBits).
	GroupDirect
	// GroupHash is the single-pass hash-banked tier.
	GroupHash
)

// String returns "legacy", "direct" or "hash".
func (s GroupStrategy) String() string {
	switch s {
	case GroupDirect:
		return "direct"
	case GroupHash:
		return "hash"
	default:
		return "legacy"
	}
}

// MaxSinglePassGroups is the group-cardinality ceiling of the
// single-pass partition path (the hash tier's key budget); queries
// grouping columns with more distinct values fall back to the legacy
// per-group walk.
const MaxSinglePassGroups = core.MaxHashGroups

// maxHashGroups is the hash tier's runtime key budget. It equals
// MaxSinglePassGroups except in tests that lower it to exercise the
// legacy fallback without building 2^20 distinct keys.
var maxHashGroups = core.MaxHashGroups

// ErrGroupCardinality reports that a single-pass GROUP BY partition
// discovered more distinct keys than MaxSinglePassGroups. Inside the
// engine it is a fallback signal (GroupBy silently reruns the legacy
// per-group walk), so it normally never escapes; it is exported so
// callers that drive the partition kernels directly — and serving-layer
// error→status mappings — can classify it with errors.Is. The sentinel
// is wrap-stable: errors.Is matches it through any fmt.Errorf("%w")
// chain (pinned by the error-contract table test).
var ErrGroupCardinality = core.ErrGroupCardinality

// SinglePass reports whether this partition was built by the
// single-pass engine (EXPLAIN support). Banked per-group aggregate
// kernels are only available on single-pass partitions.
func (g *Grouped) SinglePass() bool { return g.strategy != GroupLegacy }

// Strategy reports which partition strategy built this Grouped
// (EXPLAIN ANALYZE support).
func (g *Grouped) Strategy() GroupStrategy { return g.strategy }

// groupSinglePass attempts the single-pass partition (direct or hash
// tier). ok is false when the query does not qualify (pre-materialized
// or user-supplied selection, NULLs on a grouping column,
// Reconstruct access, or cardinality past the tier budget) — the
// caller then runs the legacy walk. A returned error is a real execution
// failure (cancellation, worker panic), never a fallback signal.
func (q *Query) groupSinglePass(ctx context.Context, cols []*Column, widths []int) (*Grouped, bool, error) {
	if q.sel != nil {
		return nil, false, nil
	}
	for _, col := range cols {
		if col.nulls != nil {
			return nil, false, nil
		}
	}
	o := execOptions(q.execs)
	if o.access == Reconstruct {
		return nil, false, nil
	}
	base := q.Selection()

	if len(cols) == 1 && cols[0].k <= core.DirectKeyBits {
		col := cols[0]
		var (
			keys []uint64
			bs   []*bitvec.Bitmap
			err  error
		)
		if col.layout == VBP {
			keys, bs, err = parallel.VBPGroupPartitionCtx(ctx, col.v, base.b, o.par)
		} else {
			keys, bs, err = parallel.HBPGroupPartitionCtx(ctx, col.h, base.b, o.par)
		}
		if err != nil {
			if errors.Is(err, core.ErrGroupCardinality) {
				return nil, false, nil
			}
			return nil, false, wrapExecErr(err)
		}
		g := &Grouped{q: q, cols: cols, widths: widths, keys: keys, strategy: GroupDirect}
		g.sels = make([]*Bitmap, len(bs))
		for i, b := range bs {
			g.sels[i] = &Bitmap{b: b}
		}
		return g, true, nil
	}

	gcols := make([]parallel.GroupCol, len(cols))
	for i, col := range cols {
		if col.layout == VBP {
			gcols[i] = parallel.GroupCol{V: col.v}
		} else {
			gcols[i] = parallel.GroupCol{H: col.h}
		}
	}
	hp, err := parallel.HashGroupPartitionCtx(ctx, gcols, base.b, cols[0].Len(), maxHashGroups, o.par)
	if err != nil {
		if errors.Is(err, core.ErrGroupCardinality) {
			return nil, false, nil
		}
		return nil, false, wrapExecErr(err)
	}
	return &Grouped{
		q: q, cols: cols, widths: widths,
		keys: hp.Keys, counts: hp.Counts, hp: hp,
		strategy: GroupHash,
	}, true, nil
}

// groupByCols is the strategy selector shared by GroupBy and
// GroupByContext: composite width check, single-pass attempt (direct or
// hash tier), legacy walk fallback.
func (q *Query) groupByCols(ctx context.Context, cols []*Column) (*Grouped, error) {
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
	if g, ok, err := q.groupSinglePass(ctx, cols, widths); err != nil {
		return nil, err
	} else if ok {
		return g, nil
	}
	return q.legacyGroupWalk(ctx, cols, widths)
}

// legacyGroupWalk runs the per-group MIN+equality walk, nesting one walk
// per grouping column for composite keys: each discovered value of
// column j refines its parent group's selection before recursing on
// column j+1, so keys come out in ascending packed order. Rows NULL in
// any grouping column never match an equality scan and drop out, the
// same semantics as the single-pass tiers' NULL gate.
func (q *Query) legacyGroupWalk(ctx context.Context, cols []*Column, widths []int) (*Grouped, error) {
	g := &Grouped{q: q, cols: cols, widths: widths, strategy: GroupLegacy}
	var walk func(sel *Bitmap, depth int, prefix uint64) error
	walk = func(sel *Bitmap, depth int, prefix uint64) error {
		col := cols[depth]
		rest := sel.Clone()
		for {
			v, ok, err := col.MinContext(ctx, rest, q.execs...)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			eq := col.ScanStats(Equal(v), q.stats)
			sub := sel.Clone().And(eq)
			key := prefix<<uint(widths[depth]) | v
			if depth == len(cols)-1 {
				g.keys = append(g.keys, key)
				g.sels = append(g.sels, sub)
			} else if err := walk(sub, depth+1, key); err != nil {
				return err
			}
			rest.AndNot(eq)
		}
	}
	if err := walk(q.Selection(), 0, 0); err != nil {
		return nil, err
	}
	return g, nil
}

// GroupBy partitions the query's current selection by the distinct
// values of the named columns. With several columns the group key is the
// packed composite of the columns' codes (see Keys/KeyParts); the
// combined key width must fit 64 bits.
func (q *Query) GroupBy(columns ...string) *Grouped {
	g, err := q.GroupByContext(nil, columns...)
	fusedMust(err)
	return g
}

// Len returns the number of groups.
func (g *Grouped) Len() int { return len(g.keys) }

// Keys returns the distinct group keys in ascending order. With one
// grouping column a key is the column's code; with several it is the
// packed composite (first column in the high bits). All per-group result
// slices below are parallel to it.
func (g *Grouped) Keys() []uint64 {
	return append([]uint64(nil), g.keys...)
}

// KeyParts unpacks group i's key into one code per grouping column.
func (g *Grouped) KeyParts(i int) []uint64 {
	return unpackKey(g.keys[i], g.widths)
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
// with key equality). The hash tier keeps selections sparse, so there it
// materializes a fresh bitmap per call; prefer the bulk aggregates,
// which never materialize.
func (g *Grouped) Selection(i int) *Bitmap {
	if g.sels != nil {
		return g.sels[i]
	}
	return &Bitmap{b: g.hp.Materialize(i)}
}

// groupCount returns group i's row count without materializing the hash
// tier's selection. The dense tiers popcount every group once and keep
// the counts, so COUNT(*) and an AVG divisor share one pass.
func (g *Grouped) groupCount(i int) uint64 {
	if g.counts == nil {
		g.counts = make([]uint64, len(g.sels))
		for j, sel := range g.sels {
			g.counts[j] = uint64(sel.Count())
		}
	}
	return g.counts[i]
}

// banked reports whether a per-group aggregate over col can run the
// banked single-pass kernels, and resolves the execution options if so.
// The gate mirrors groupSinglePass's per-column conditions: the
// partition itself must be single-pass, the measure column NULL-free,
// and access not pinned to Reconstruct.
func (g *Grouped) banked(col *Column) (execConfig, bool) {
	if !g.SinglePass() || col.nulls != nil {
		return execConfig{}, false
	}
	o := execOptions(g.q.execs)
	if o.access == Reconstruct {
		return execConfig{}, false
	}
	return o, true
}

// rawSels unwraps the group selections for the internal drivers (direct
// tier only).
func (g *Grouped) rawSels() []*bitvec.Bitmap {
	bs := make([]*bitvec.Bitmap, len(g.sels))
	for i, s := range g.sels {
		bs[i] = s.b
	}
	return bs
}

// measureGroupCol wraps a measure column for the hash drivers.
func measureGroupCol(col *Column) parallel.GroupCol {
	if col.layout == VBP {
		return parallel.GroupCol{V: col.v}
	}
	return parallel.GroupCol{H: col.h}
}

// bankedSums runs the single-pass grouped SUM over all groups at once.
// The kernels accumulate 128 bits per group, so every partial is exact.
func (g *Grouped) bankedSums(ctx context.Context, col *Column, o execConfig) (his, los []uint64, err error) {
	switch {
	case g.hp != nil:
		his, los, err = parallel.HashGroupSumCtx(ctx, measureGroupCol(col), g.hp, o.par)
	case col.layout == VBP:
		his, los, err = parallel.VBPGroupSumCtx(ctx, col.v, g.rawSels(), o.par)
	default:
		his, los, err = parallel.HBPGroupSumCtx(ctx, col.h, g.rawSels(), o.par)
	}
	return his, los, wrapExecErr(err)
}

// bankedExtreme runs the single-pass grouped MIN/MAX over all groups at
// once. anys[i] is false only if group i's selection is empty, which
// the partition invariant rules out.
func (g *Grouped) bankedExtreme(ctx context.Context, col *Column, o execConfig, wantMin bool) ([]uint64, []bool, error) {
	var vals []uint64
	var anys []bool
	var err error
	switch {
	case g.hp != nil:
		vals, anys, err = parallel.HashGroupExtremeCtx(ctx, measureGroupCol(col), g.hp, wantMin, o.par)
	case col.layout == VBP:
		vals, anys, err = parallel.VBPGroupExtremeCtx(ctx, col.v, g.rawSels(), wantMin, o.par)
	default:
		vals, anys, err = parallel.HBPGroupExtremeCtx(ctx, col.h, g.rawSels(), wantMin, o.par)
	}
	if err != nil {
		return nil, nil, wrapExecErr(err)
	}
	return vals, anys, nil
}

// Count returns each group's row count. The counts are recorded into
// the query's stats collector as one aggregate per group, matching the
// other per-group aggregates; the hash tier serves them from the counts
// tallied during partitioning.
func (g *Grouped) Count() []uint64 {
	out, err := g.CountContext(nil)
	fusedMust(err)
	return out
}

// Sum aggregates SUM of the named column per group: banked single-pass
// over the measure column when the partition and column qualify, one
// Column.SumContext per group otherwise. Either path panics with an
// *OverflowError naming the offending group when a group's sum exceeds
// uint64 (use SumContext to receive it as an error).
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
