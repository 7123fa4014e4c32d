package diff

import (
	"context"
	"errors"
	"fmt"

	"bpagg"
	"bpagg/internal/oracle"
)

// Positional range/window differential axis. The prefix-sum range index
// (internal/rangeidx) answers filter-free Range/Window aggregates from
// 128-bit prefix differences and sparse-table extremes; queries with
// predicates fall back to the bitmap pipeline with the range as one more
// conjunct. Both routes must agree bit-for-bit with the oracle computed
// over the positional slice of the case's selection — including the
// overflow contract (an over-uint64 range SUM surfaces as
// *bpagg.OverflowError carrying the exact total) and the NULL rules
// (NULL-bearing columns are never index-served, so the fallback's
// non-null COUNT and AVG divisors are checked against the same oracle).
// checkRange/checkWindow run inside Check's {fresh, rebuilt, reloaded} ×
// {1, 8} threads matrix; checkShardedRange/checkShardedWindow run the
// partitioned twins inside CheckSharded's {split, reloaded} matrix, so
// shard pruning and per-shard local-range translation answer to the same
// arbiter. GROUP BY under a range (checkRangeGroupBy) answers to the
// oracle's partition of the same positional slice on both stores.

// rangeProbes returns the deterministic positional probes for an n-row
// table: full, empty, past-the-end clipping, single rows at the head and
// interior, segment-aligned whole segments, and fringe-heavy interior
// shapes where both boundary segments are partial.
func rangeProbes(n int) [][2]int {
	ps := [][2]int{
		{0, n},             // full table
		{0, 0},             // empty prefix
		{n, n + 13},        // starts past the end: clips to empty
		{0, 1},             // head row
		{n / 2, n/2 + 1},   // interior single row
		{64, 192},          // aligned whole segments (clips on small tables)
		{1, max(1, n-1)},   // both boundary fringes partial
		{n / 4, 3*n/4 + 1}, // interior, misaligned on both ends
	}
	out := ps[:0]
	seen := map[[2]int]bool{}
	for _, p := range ps {
		if p[1] < p[0] || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// windowProbes returns the {size, step} window shapes: segment-aligned
// tumbling, fringe-heavy sliding with overlap, and sampling with gaps.
func windowProbes() [][2]int {
	return [][2]int{{64, 64}, {37, 23}, {96, 128}}
}

// rangeSel restricts a selection to rows [lo, hi), clipped to the data.
func rangeSel(base []bool, lo, hi int) []bool {
	out := make([]bool, len(base))
	if hi > len(base) {
		hi = len(base)
	}
	for i := lo; i < hi; i++ {
		out[i] = base[i]
	}
	return out
}

// cmpSumSel is cmpSum against an oracle verdict computed over an ad-hoc
// selection (one range or window) instead of the case-wide expectation.
func cmpSumSel(e tag, agg string, got uint64, gotErr error, oa *oracle.Column, sel []bool) error {
	sumU, fits := oa.SumUint64(sel)
	if !fits {
		var ov *bpagg.OverflowError
		if !errors.As(gotErr, &ov) {
			return e.fail(agg, "true sum %s overflows uint64; engine returned %d err=%v, want *bpagg.OverflowError",
				oa.Sum(sel).String(), got, gotErr)
		}
		if ov.Big().String() != oa.Sum(sel).String() {
			return e.fail(agg, "OverflowError reports %s, true sum is %s", ov.Big().String(), oa.Sum(sel).String())
		}
		return nil
	}
	if gotErr != nil {
		return e.fail(agg, "unexpected error: %v", gotErr)
	}
	if got != sumU {
		return e.fail(agg, "engine=%d oracle=%d", got, sumU)
	}
	return nil
}

// cmpAvgSel mirrors cmpSumSel for AVG: an overflowing sum must surface
// as the same typed error, and a fitting one must divide bit-identically.
func cmpAvgSel(e tag, agg string, got float64, gotOK bool, gotErr error, oa *oracle.Column, sel []bool) error {
	if _, fits := oa.SumUint64(sel); !fits {
		var ov *bpagg.OverflowError
		if !errors.As(gotErr, &ov) {
			return e.fail(agg, "true sum %s overflows uint64; engine returned %v,%v err=%v, want *bpagg.OverflowError",
				oa.Sum(sel).String(), got, gotOK, gotErr)
		}
		return nil
	}
	if gotErr != nil {
		return e.fail(agg, "unexpected error: %v", gotErr)
	}
	want, wantOK := oa.Avg(sel)
	if gotOK != wantOK {
		return e.fail(agg, "engine ok=%v oracle ok=%v", gotOK, wantOK)
	}
	if wantOK && got != want {
		return e.fail(agg, "engine=%v oracle=%v (must be bit-identical)", got, want)
	}
	return nil
}

// rangeAggs is the aggregate battery one positional range answers to,
// shared by the flat and sharded drivers. probe is the range's [lo, hi)
// pair (for cell naming); full gates the rank family (MEDIAN, RANK,
// QUANTILE), which costs a radix descent each.
type rangeAggs struct {
	CountRows func(context.Context) (uint64, error)
	Count     func(context.Context, string) (uint64, error)
	Sum       func(context.Context, string) (uint64, error)
	PlainSum  func(string) uint64
	Min       func(context.Context, string) (uint64, bool, error)
	Max       func(context.Context, string) (uint64, bool, error)
	Avg       func(context.Context, string) (float64, bool, error)
	Median    func(context.Context, string) (uint64, bool, error)
	Rank      func(context.Context, string, uint64) (uint64, bool, error)
	Quantile  func(context.Context, string, float64) (uint64, bool, error)
}

func checkRangeAggs(e tag, oa *oracle.Column, rsel []bool, probe [2]int, full bool, nr func() rangeAggs) error {
	ctx := context.Background()
	name := func(agg string) string { return fmt.Sprintf("%s[%d,%d)", agg, probe[0], probe[1]) }

	cr, err := nr().CountRows(ctx)
	if ferr := cmpU64(e, name("COUNT(*)"), cr, err, oracle.CountRows(rsel)); ferr != nil {
		return ferr
	}
	cnt, err := nr().Count(ctx, "a")
	if ferr := cmpU64(e, name("COUNT(a)"), cnt, err, oa.Count(rsel)); ferr != nil {
		return ferr
	}

	sum, err := nr().Sum(ctx, "a")
	if ferr := cmpSumSel(e, name("SUM"), sum, err, oa, rsel); ferr != nil {
		return ferr
	}
	psum, err := capture1(func() uint64 { return nr().PlainSum("a") })
	if ferr := cmpSumSel(e, name("SUM(plain)"), psum, err, oa, rsel); ferr != nil {
		return ferr
	}

	var want valOK
	mn, ok, err := nr().Min(ctx, "a")
	want.v, want.ok = oa.Min(rsel)
	if ferr := cmpOK(e, name("MIN"), mn, ok, err, want); ferr != nil {
		return ferr
	}
	mx, ok, err := nr().Max(ctx, "a")
	want.v, want.ok = oa.Max(rsel)
	if ferr := cmpOK(e, name("MAX"), mx, ok, err, want); ferr != nil {
		return ferr
	}

	av, ok, err := nr().Avg(ctx, "a")
	if ferr := cmpAvgSel(e, name("AVG"), av, ok, err, oa, rsel); ferr != nil {
		return ferr
	}

	if !full {
		return nil
	}
	md, ok, err := nr().Median(ctx, "a")
	want.v, want.ok = oa.Median(rsel)
	if ferr := cmpOK(e, name("MEDIAN"), md, ok, err, want); ferr != nil {
		return ferr
	}
	for _, r := range []uint64{1, oa.Count(rsel)} {
		v, ok, err := nr().Rank(ctx, "a", r)
		want.v, want.ok = oa.Rank(rsel, r)
		if ferr := cmpOK(e, name(fmt.Sprintf("RANK(%d)", r)), v, ok, err, want); ferr != nil {
			return ferr
		}
	}
	v, ok, err := nr().Quantile(ctx, "a", 0.5)
	want.v, want.ok = oa.Quantile(rsel, 0.5)
	return cmpOK(e, name("QUANTILE(0.5)"), v, ok, err, want)
}

// rangeGrouped is what a GROUP BY under a row range answers with on
// either store (*bpagg.Grouped, *bpagg.ShardedGrouped).
type rangeGrouped interface {
	Strategy() bpagg.GroupStrategy
	Keys() []uint64
	CountContext(context.Context) ([]uint64, error)
	SumContext(context.Context, string) ([]uint64, error)
	MedianContext(context.Context, string) ([]uint64, error)
}

// checkRangeGroupBy compares GROUP BY over one positional range with the
// oracle's partition of the range's slice of the selection: tier, keys, row
// counts, SUM under the overflow contract, and MEDIAN (an error when a
// group holds only NULLs, as for the unrestricted grouped aggregates).
func checkRangeGroupBy(e tag, c *Case, exp *expectation, rsel []bool, probe [2]int, group func(context.Context) (rangeGrouped, error)) error {
	ctx := context.Background()
	name := func(agg string) string { return fmt.Sprintf("GROUPBY %s[%d,%d)", agg, probe[0], probe[1]) }
	var keys []uint64
	var groups [][]bool
	if c.G2 != nil {
		keys, groups = oracle.GroupByComposite([]*oracle.Column{exp.og, exp.og2}, []int{c.gk(), c.g2k()}, rsel)
	} else {
		keys, groups = exp.og.GroupBy(rsel)
	}
	g, err := group(ctx)
	if err != nil {
		return e.fail(name("KEYS"), "unexpected error: %v", err)
	}
	if tier := wantStrategy(c); g.Strategy() != tier {
		return e.fail(name("STRATEGY"), "engine chose %s tier, key-width rule says %s", g.Strategy(), tier)
	}
	if ferr := cmpSlice(e, name("KEYS"), g.Keys(), keys); ferr != nil {
		return ferr
	}
	want := make([]uint64, len(keys))
	for i := range keys {
		want[i] = oracle.CountRows(groups[i])
	}
	counts, err := g.CountContext(ctx)
	if err != nil {
		return e.fail(name("COUNT"), "unexpected error: %v", err)
	}
	if ferr := cmpSlice(e, name("COUNT"), counts, want); ferr != nil {
		return ferr
	}

	overflows, hasValues := false, true
	for i := range keys {
		s, fits := exp.oa.SumUint64(groups[i])
		want[i], overflows = s, overflows || !fits
		hasValues = hasValues && exp.oa.Count(groups[i]) > 0
	}
	sums, err := g.SumContext(ctx, "a")
	var ov *bpagg.OverflowError
	switch {
	case overflows && !errors.As(err, &ov):
		return e.fail(name("SUM"), "a group sum overflows uint64; engine returned %v err=%v, want *bpagg.OverflowError", sums, err)
	case !overflows && err != nil:
		return e.fail(name("SUM"), "unexpected error: %v", err)
	case !overflows:
		if ferr := cmpSlice(e, name("SUM"), sums, want); ferr != nil {
			return ferr
		}
	}

	meds, err := g.MedianContext(ctx, "a")
	if !hasValues {
		if err == nil {
			return e.fail(name("MEDIAN"), "a group has only NULLs; engine returned %v, want the empty-group error", meds)
		}
		return nil
	}
	if err != nil {
		return e.fail(name("MEDIAN"), "unexpected error: %v", err)
	}
	for i := range keys {
		want[i], _ = exp.oa.Median(groups[i])
	}
	return cmpSlice(e, name("MEDIAN"), meds, want)
}

// groupCols names the case's grouping columns.
func groupCols(c *Case) []string {
	if c.G2 != nil {
		return []string{"g", "g2"}
	}
	return []string{"g"}
}

// checkRange drives the flat positional Range API over the probe battery.
// Predicate-free cases take the index-served O(1) path (NULL-bearing
// columns fall back internally); cases with predicates exercise the
// range-as-conjunct bitmap fallback. Every third probe adds the
// rank-family battery, and GROUP BY under the range when the case has a
// grouping column. With deep unset (the secondary thread counts), only
// that rank-bearing subset runs — thread sensitivity lives in the
// kernels the primary thread already swept probe by probe.
func checkRange(c *Case, exp *expectation, state string, tbl *bpagg.Table, th int, deep bool) error {
	e := tag{c, state, "range", th}
	for i, p := range rangeProbes(len(exp.oa.Vals)) {
		p := p
		if !deep && i%3 != 0 {
			continue
		}
		rsel := rangeSel(exp.sel, p[0], p[1])
		nr := func() rangeAggs {
			r := newQuery(c, tbl, th).Range(p[0], p[1])
			return rangeAggs{
				CountRows: r.CountRowsContext,
				Count:     r.CountContext,
				Sum:       r.SumContext,
				PlainSum:  r.Sum,
				Min:       r.MinContext,
				Max:       r.MaxContext,
				Avg:       r.AvgContext,
				Median:    r.MedianContext,
				Rank:      r.RankContext,
				Quantile:  r.QuantileContext,
			}
		}
		if err := checkRangeAggs(e, exp.oa, rsel, p, i%3 == 0, nr); err != nil {
			return err
		}
		if c.G != nil && i%3 == 0 {
			err := checkRangeGroupBy(e, c, exp, rsel, p, func(ctx context.Context) (rangeGrouped, error) {
				return newQuery(c, tbl, th).Range(p[0], p[1]).GroupByContext(ctx, groupCols(c)...)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkShardedRange is checkRange on the partitioned store: the same
// probes route through ShardedRangeQuery, whose shard pruning, local
// range translation, 128-bit partial merge, and range-restricted rank
// descent must reproduce the flat verdicts exactly. The rank family runs
// on the full-table probe of the primary thread only: the flat driver
// already sweeps the family probe by probe on both threads.
func checkShardedRange(c *Case, exp *expectation, state string, st *bpagg.ShardedTable, th int, deep bool) error {
	e := tag{c, state, "sharded-range", th}
	for i, p := range rangeProbes(len(exp.oa.Vals)) {
		p := p
		if !deep && i%3 != 0 {
			continue
		}
		rsel := rangeSel(exp.sel, p[0], p[1])
		nr := func() rangeAggs {
			r := newShardedQuery(c, st, th).Range(p[0], p[1])
			return rangeAggs{
				CountRows: r.CountRowsContext,
				Count:     r.CountContext,
				Sum:       r.SumContext,
				PlainSum:  r.Sum,
				Min:       r.MinContext,
				Max:       r.MaxContext,
				Avg:       r.AvgContext,
				Median:    r.MedianContext,
				Rank:      r.RankContext,
				Quantile:  r.QuantileContext,
			}
		}
		if err := checkRangeAggs(e, exp.oa, rsel, p, deep && i == 0, nr); err != nil {
			return err
		}
		if c.G != nil && i%3 == 0 {
			err := checkRangeGroupBy(e, c, exp, rsel, p, func(ctx context.Context) (rangeGrouped, error) {
				return newShardedQuery(c, st, th).Range(p[0], p[1]).GroupByContext(ctx, groupCols(c)...)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// windowAggs is the per-window battery shared by the flat and sharded
// window drivers.
type windowAggs struct {
	CountRows func(context.Context) ([]uint64, error)
	Sum       func(context.Context, string) ([]uint64, error)
	Min       func(context.Context, string) ([]uint64, []bool, error)
	Max       func(context.Context, string) ([]uint64, []bool, error)
	Avg       func(context.Context, string) ([]float64, []bool, error)
}

func checkWindowAggs(e tag, oa *oracle.Column, sel []bool, size, step int, nw func() windowAggs) error {
	ctx := context.Background()
	name := func(agg string) string { return fmt.Sprintf("%s w%d/s%d", agg, size, step) }

	var wsels [][]bool
	for b := 0; b < len(oa.Vals); b += step {
		wsels = append(wsels, rangeSel(sel, b, b+size))
	}
	// The first window whose true sum exceeds uint64, if any: SUM and AVG
	// abort the whole sweep there with the typed overflow error.
	ovIdx := -1
	for i, ws := range wsels {
		if _, fits := oa.SumUint64(ws); !fits {
			ovIdx = i
			break
		}
	}

	crs, err := nw().CountRows(ctx)
	if err != nil {
		return e.fail(name("COUNT(*)"), "unexpected error: %v", err)
	}
	want := make([]uint64, len(wsels))
	for i, ws := range wsels {
		want[i] = oracle.CountRows(ws)
	}
	if ferr := cmpSlice(e, name("COUNT(*)"), crs, want); ferr != nil {
		return ferr
	}

	sums, err := nw().Sum(ctx, "a")
	if ovIdx >= 0 {
		var ov *bpagg.OverflowError
		if !errors.As(err, &ov) {
			return e.fail(name("SUM"), "window %d's true sum overflows uint64; engine returned %v err=%v, want *bpagg.OverflowError",
				ovIdx, sums, err)
		}
		if ov.Big().String() != oa.Sum(wsels[ovIdx]).String() {
			return e.fail(name("SUM"), "OverflowError reports %s, window %d's true sum is %s",
				ov.Big().String(), ovIdx, oa.Sum(wsels[ovIdx]).String())
		}
	} else {
		if err != nil {
			return e.fail(name("SUM"), "unexpected error: %v", err)
		}
		for i, ws := range wsels {
			want[i], _ = oa.SumUint64(ws)
		}
		if ferr := cmpSlice(e, name("SUM"), sums, want); ferr != nil {
			return ferr
		}
	}

	type winExtreme struct {
		name   string
		eng    func(context.Context, string) ([]uint64, []bool, error)
		oracle func([]bool) (uint64, bool)
	}
	for _, wx := range []winExtreme{{"MIN", nw().Min, oa.Min}, {"MAX", nw().Max, oa.Max}} {
		vals, oks, err := wx.eng(ctx, "a")
		if err != nil {
			return e.fail(name(wx.name), "unexpected error: %v", err)
		}
		wantOKs := make([]bool, len(wsels))
		for i, ws := range wsels {
			want[i], wantOKs[i] = wx.oracle(ws)
		}
		if ferr := cmpSlice(e, name(wx.name+" oks"), oks, wantOKs); ferr != nil {
			return ferr
		}
		for i := range vals {
			if wantOKs[i] && vals[i] != want[i] {
				return e.fail(name(wx.name), "window %d: engine=%d oracle=%d", i, vals[i], want[i])
			}
		}
	}

	avgs, oks, err := nw().Avg(ctx, "a")
	if ovIdx >= 0 {
		var ov *bpagg.OverflowError
		if !errors.As(err, &ov) {
			return e.fail(name("AVG"), "window %d's true sum overflows uint64; engine returned err=%v, want *bpagg.OverflowError", ovIdx, err)
		}
		return nil
	}
	if err != nil {
		return e.fail(name("AVG"), "unexpected error: %v", err)
	}
	for i, ws := range wsels {
		wantAvg, wantOK := oa.Avg(ws)
		if oks[i] != wantOK {
			return e.fail(name("AVG"), "window %d: engine ok=%v oracle ok=%v", i, oks[i], wantOK)
		}
		if wantOK && avgs[i] != wantAvg {
			return e.fail(name("AVG"), "window %d: engine=%v oracle=%v (must be bit-identical)", i, avgs[i], wantAvg)
		}
	}
	return nil
}

// checkWindow drives the flat Window sweep over every probe shape: the
// index-served prefix-difference sweep for predicate-free cases, the
// per-window bitmap fallback otherwise. With deep unset only the first
// (segment-aligned tumbling) shape runs.
func checkWindow(c *Case, exp *expectation, state string, tbl *bpagg.Table, th int, deep bool) error {
	e := tag{c, state, "window", th}
	for i, p := range windowProbes() {
		p := p
		if !deep && i != 0 {
			continue
		}
		nw := func() windowAggs {
			w := newQuery(c, tbl, th).Window(p[0], p[1])
			return windowAggs{
				CountRows: w.CountRowsContext,
				Sum:       w.SumContext,
				Min:       w.MinContext,
				Max:       w.MaxContext,
				Avg:       w.AvgContext,
			}
		}
		if err := checkWindowAggs(e, exp.oa, exp.sel, p[0], p[1], nw); err != nil {
			return err
		}
	}
	return nil
}

// checkShardedWindow is checkWindow on the partitioned store. The
// fringe-heavy slider (probe 1) stays flat-only: every window is one
// whole-store fan-out here, and the flat driver already sweeps that
// shape; the sharded twin keeps the tumbling and gap shapes.
func checkShardedWindow(c *Case, exp *expectation, state string, st *bpagg.ShardedTable, th int, deep bool) error {
	e := tag{c, state, "sharded-window", th}
	for i, p := range windowProbes() {
		p := p
		if i == 1 || (!deep && i != 0) {
			continue
		}
		nw := func() windowAggs {
			w := newShardedQuery(c, st, th).Window(p[0], p[1])
			return windowAggs{
				CountRows: w.CountRowsContext,
				Sum:       w.SumContext,
				Min:       w.MinContext,
				Max:       w.MaxContext,
				Avg:       w.AvgContext,
			}
		}
		if err := checkWindowAggs(e, exp.oa, exp.sel, p[0], p[1], nw); err != nil {
			return err
		}
	}
	return nil
}
