package bpagg

import (
	"context"
	"fmt"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/parallel"
)

// A part's engine: the scalar aggregate as a value (aggCall), the one
// body that answers it on a part's view on the filter its plan chose
// (eval), and the per-part partition's aggregates the store's Grouped
// merges.
// Unknown column names — the one untrusted input this layer sees — come
// back as errors instead of panics, and every aggregate accepts a
// context.

// ColumnErr returns the named column or an error when absent — the
// error-returning twin of Column for callers resolving untrusted names.
func (t *Table) ColumnErr(name string) (*Column, error) {
	c := t.cols[name]
	if c == nil {
		return nil, fmt.Errorf("bpagg: unknown column %q", name)
	}
	return c, nil
}

// aggOp names a scalar aggregate. The order is load-bearing: the ops up
// to opSumCount are additive (their partials merge by 128-bit addition,
// the rest as extremes), the ops up to opMax are the ones the range index
// can serve, and the ops from opMedian on are ranks.
type aggOp uint8

const (
	opCountRows aggOp = iota
	opCount
	opSum
	opSumCount
	opMin
	opMax
	opMedian
	opRank
	opQuantile
)

// aggTable spells, by op, every aggregate a statement can name
// (GroupAgg.Op; AVG names SUM's op) and, for those a grouped answer
// banks, its measure (COUNT(*)'s: the partition's counts).
var aggTable = [...]aggEntry{
	opCount: {"COUNT", parallel.MeasureCount}, opSum: {"SUM", parallel.MeasureSum},
	opMin: {"MIN", parallel.MeasureMin}, opMax: {"MAX", parallel.MeasureMax},
	opMedian: {name: "MEDIAN"}, opQuantile: {name: "QUANTILE"}, opCountRows: {measure: parallel.MeasureCount},
}

type aggEntry struct {
	name    string
	measure parallel.MeasureOp
}

// aggCall is one scalar aggregate as a value: what a wrapper asks eval,
// and what the shard fan-out asks every live shard's view.
type aggCall struct {
	op       aggOp
	column   string
	rank     uint64  // opRank
	quantile float64 // opQuantile
}

// partial is one view's answer: a 128-bit sum with its non-NULL count
// (counts alone use cnt), or a value with its presence flag in lo and ok.
type partial struct {
	hi, lo, cnt uint64
	ok          bool
}

// narrowSum narrows eval's 128-bit SUM partial to the public result: a
// total past uint64 is an *OverflowError carrying the exact value.
func narrowSum(p partial, err error) (sum, cnt uint64, _ error) {
	if err != nil {
		return 0, 0, err
	}
	if p.hi != 0 {
		return 0, 0, &OverflowError{Hi: p.hi, Lo: p.lo}
	}
	return p.lo, p.cnt, nil
}

// avgOf divides a SUM by its non-NULL COUNT — the one place AVG becomes a
// float. ok is false when nothing was counted.
func avgOf(sum, cnt uint64, err error) (float64, bool, error) {
	if err != nil || cnt == 0 {
		return 0, false, err
	}
	return float64(sum) / float64(cnt), true, nil
}

// isRank reports whether the call is an order statistic: one radix
// descent over every live part's candidates, not a merge of partials.
func (c aggCall) isRank() bool { return c.op >= opMedian }

// rankOf maps the selected non-NULL count to the wanted 1-based rank.
func (c aggCall) rankOf(u uint64) (uint64, bool) {
	switch c.op {
	case opMedian:
		return medianRank(u)
	case opQuantile:
		return quantileRank(c.quantile)(u)
	}
	return c.rank, true
}

// eval is a part's one engine body (DESIGN.md §7) for every call the
// index does not serve: it builds the view's filter for c's column once,
// in the form the plan chose, and hands it to c's driver — a rank's to
// FilterRankPart, whose candidates r receives for the store's one
// descent. The forms are bit-identical. The bitmap form keeps the Column
// aggregates' handling: a popcount COUNT and no kernel for MIN/MAX over no
// rows. The call travels by pointer, and the index route stays in visit: a
// multi-shard fan-out runs this path on a fresh goroutine stack, where a
// larger frame on an index-served aggregate's path grows it (+1 µs per
// statement when it does).
func (v *flatView) eval(ctx context.Context, c *aggCall, r *parallel.RankPart) (p partial, err error) {
	var col *Column
	if c.op != opCountRows {
		col = v.t.cols[c.column]
	}
	o := execOptions(v.execs)
	src, eff := v.filter(col)
	switch {
	case c.isRank():
		*r, err = parallel.FilterRankPart(ctx, groupCol(col), src, o)
	case c.op <= opCount && eff != nil:
		p.cnt = core.Count(eff)
	case c.op <= opCount: // fused, in the first clause's column's windows (every eligible column shares them)
		c0 := v.clauses[0].col
		p.cnt, err = parallel.CountCtx(ctx, src, c0.segRows(), c0.Len(), o)
	case c.op <= opSumCount:
		p.lo, p.cnt, err = col.sum(ctx, src, o)
		p.hi, p.lo, err = sum128(p.lo, err)
	case eff == nil || eff.Any():
		p.lo, p.cnt, err = col.extreme(ctx, src, o, c.op == opMin)
		p.ok = p.cnt > 0
	}
	return p, wrapExecErr(err)
}

// filter is the view's filter for an aggregate over col (nil for
// COUNT(*)) in the form the plan chose: the clauses' predicate
// conjunction when the statement fuses; else the view's selection
// without col's NULL rows, as a bitmap, which is also returned.
func (v *flatView) filter(col *Column) (core.Filter, *bitvec.Bitmap) {
	if v.fused {
		return core.Preds(v.fusedPlan()), nil
	}
	sel := v.selected()
	eff := sel.b
	if col != nil {
		eff = col.effective(sel)
	}
	return core.Bits(eff), eff
}

// bank answers non-rank aggregate c per group in the part's group order:
// the partition's own counts for COUNT(*), recorded as one aggregate per
// group, and for COUNT of a NULL-free column; the pass's bank on a
// partition built for named aggregates; one pass over the kept run list
// otherwise.
func (g *groupPart) bank(ctx context.Context, c aggCall) (*parallel.Bank, error) {
	if c.op == opCountRows {
		g.q.stats.Record(ExecStats{Aggregates: uint64(len(g.hp.Keys))})
		return &parallel.Bank{Count: g.hp.Counts}, nil
	}
	col := g.q.t.cols[c.column]
	m := measureOf(col, c.op)
	switch b := g.hp.Bank(m); {
	case c.op == opCount && col.nulls == nil:
		return &parallel.Bank{Count: g.hp.Counts}, nil
	case b != nil:
		return b, nil
	}
	b, err := parallel.BankCtx(orBackground(ctx), m, g.hp, g.opts())
	return b, wrapExecErr(err)
}

// groupSums64 narrows per-group 128-bit sums to the public result: the
// first group in key order whose total exceeds uint64 is an
// *OverflowError carrying the exact total and that group's key.
func groupSums64(his, los []uint64, keyParts func(i int) []uint64) ([]uint64, error) {
	for i, hi := range his {
		if hi != 0 {
			return nil, &OverflowError{Hi: hi, Lo: los[i], Group: keyParts(i)}
		}
	}
	return los, nil
}

// allGroups narrows a per-group result with presence flags to the plain
// form, where a group without a value is an invariant violation.
func allGroups(vals []uint64, oks []bool, err error) ([]uint64, error) {
	if err != nil {
		return nil, err
	}
	for _, ok := range oks {
		if !ok {
			return nil, fmt.Errorf("bpagg: empty group selection — grouping invariant violated")
		}
	}
	return vals, nil
}

// groupAvgs divides per-group sums by their non-NULL counts; a group
// without values averages to 0.
func groupAvgs(sums, counts []uint64) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		if counts[i] > 0 {
			out[i] = float64(s) / float64(counts[i])
		}
	}
	return out
}
