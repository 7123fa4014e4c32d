package diff

import (
	"bytes"
	"errors"
	"fmt"

	"bpagg"
	"bpagg/internal/oracle"
)

// CheckSharded runs the sharded partitioned store over one case and
// demands bit-identical answers to the naive oracle — the same arbiter
// the flat engine answers to in Check, so sharded-vs-flat identity
// follows transitively. The matrix is
//
//	{split, reloaded} store state ×
//	{1, 8} threads ×
//	{COUNT(*), COUNT, SUM, MIN, MAX, AVG, MEDIAN, rank, quantile}
//
// plus GROUP BY when the case carries a grouping column, and the
// positional Range/Window axis (checkShardedRange/checkShardedWindow),
// whose shard pruning and local-range translation must reproduce the
// flat verdicts. "split" shards
// the case's full flat table at the given shard size (exercising sealed
// shards, a possibly partial tail, and NULL preservation); "reloaded"
// round-trips that store through WriteTo/ReadShardedTable so the matrix
// also runs on deserialized shards and a recomputed catalog. Overflow
// discipline is identical to the flat engine: an overflowing SUM must
// surface as *bpagg.OverflowError carrying the exact 128-bit total even
// though no single shard's partial overflows.
func CheckSharded(c Case, shardRows int) error {
	if err := validate(&c); err != nil {
		return err
	}
	exp := expected(&c)
	threads := c.Threads
	if len(threads) == 0 {
		threads = []int{1, 8}
	}

	base := buildTable(&c)
	appendExtras(base, &c)
	split := bpagg.ShardTable(base, shardRows)

	type state struct {
		name string
		st   *bpagg.ShardedTable
	}
	states := []state{{fmt.Sprintf("split/%d", shardRows), split}}

	var buf bytes.Buffer
	if _, err := split.WriteTo(&buf); err != nil {
		return fmt.Errorf("case %s: serialize sharded: %w", c.Name, err)
	}
	reloaded, err := bpagg.ReadShardedTable(&buf)
	if err != nil {
		return fmt.Errorf("case %s: reload sharded: %w", c.Name, err)
	}
	states = append(states, state{fmt.Sprintf("reloaded/%d", shardRows), reloaded})

	for _, st := range states {
		for ti, th := range threads {
			if err := checkShardedAggs(&c, exp, st.name, st.st, th); err != nil {
				return err
			}
			if err := checkShardedRange(&c, exp, st.name, st.st, th, ti == 0); err != nil {
				return err
			}
			if err := checkShardedWindow(&c, exp, st.name, st.st, th, ti == 0); err != nil {
				return err
			}
			if c.G != nil {
				if err := checkShardedGroupBy(&c, exp, st.name, st.st, th); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// newShardedQuery mirrors newQuery on the partitioned store.
func newShardedQuery(c *Case, st *bpagg.ShardedTable, th int) *bpagg.ShardedQuery {
	q := st.Query().With(bpagg.Parallel(th))
	for _, ps := range c.Preds {
		q = q.Where(ps.Col, enginePred(ps.Pred))
	}
	return q
}

func checkShardedAggs(c *Case, exp *expectation, state string, st *bpagg.ShardedTable, th int) error {
	e := tag{c, state, "sharded", th}
	nq := func() *bpagg.ShardedQuery { return newShardedQuery(c, st, th) }

	cr, err := capture1(func() uint64 { return nq().CountRows() })
	if ferr := cmpU64(e, "COUNT(*)", cr, err, exp.countRows); ferr != nil {
		return ferr
	}
	cnt, err := capture1(func() uint64 { return nq().Count("a") })
	if ferr := cmpU64(e, "COUNT(a)", cnt, err, exp.count); ferr != nil {
		return ferr
	}

	sum, err := capture1(func() uint64 { return nq().Sum("a") })
	if ferr := cmpSum(e, "SUM", sum, err, exp); ferr != nil {
		return ferr
	}

	mn, ok, err := capture2(func() (uint64, bool) { return nq().Min("a") })
	if ferr := cmpOK(e, "MIN", mn, ok, err, exp.min); ferr != nil {
		return ferr
	}
	mx, ok, err := capture2(func() (uint64, bool) { return nq().Max("a") })
	if ferr := cmpOK(e, "MAX", mx, ok, err, exp.max); ferr != nil {
		return ferr
	}

	av, ok, err := capture2(func() (float64, bool) { return nq().Avg("a") })
	if ferr := cmpAvg(e, "AVG", av, ok, err, exp); ferr != nil {
		return ferr
	}

	md, ok, err := capture2(func() (uint64, bool) { return nq().Median("a") })
	if ferr := cmpOK(e, "MEDIAN", md, ok, err, exp.med); ferr != nil {
		return ferr
	}

	for _, r := range exp.rs {
		r := r
		v, ok, err := capture2(func() (uint64, bool) { return nq().Rank("a", r) })
		if ferr := cmpOK(e, fmt.Sprintf("RANK(%d)", r), v, ok, err, exp.ranks[r]); ferr != nil {
			return ferr
		}
	}
	for _, q := range exp.qs {
		q := q
		v, ok, err := capture2(func() (uint64, bool) { return nq().Quantile("a", q) })
		if ferr := cmpOK(e, fmt.Sprintf("QUANTILE(%v)", q), v, ok, err, exp.quants[q]); ferr != nil {
			return ferr
		}
	}
	return nil
}

// checkShardedGroupBy compares the sharded GROUP BY merge — per-shard
// banks unioned by sorted key — against the oracle, including the
// flat engine's documented behaviors: typed overflow for SUM/AVG, the
// empty-group panic for MIN/MAX/MEDIAN over an all-NULL group, and the
// MedianOk/QuantileOk rendering of that group as not ok.
func checkShardedGroupBy(c *Case, exp *expectation, state string, st *bpagg.ShardedTable, th int) error {
	e := tag{c, state, "sharded-groupby", th}
	var keys []uint64
	var groups [][]bool
	if c.G2 != nil {
		keys, groups = oracle.GroupByComposite(
			[]*oracle.Column{exp.og, exp.og2},
			[]int{c.gk(), c.g2k()},
			exp.sel)
	} else {
		keys, groups = exp.og.GroupBy(exp.sel)
	}

	g, err := capture1(func() *bpagg.ShardedGrouped {
		q := newShardedQuery(c, st, th)
		if c.G2 != nil {
			return q.GroupBy("g", "g2")
		}
		return q.GroupBy("g")
	})
	if err != nil {
		return e.fail("GROUPBY", "unexpected panic: %v", err)
	}
	if ferr := cmpSlice(e, "KEYS", g.Keys(), keys); ferr != nil {
		return ferr
	}

	wantCounts := make([]uint64, len(keys))
	for i := range keys {
		wantCounts[i] = oracle.CountRows(groups[i])
	}
	counts, err := capture1(func() []uint64 { return g.Count() })
	if err != nil {
		return e.fail("COUNT", "unexpected error: %v", err)
	}
	if ferr := cmpSlice(e, "COUNT", counts, wantCounts); ferr != nil {
		return ferr
	}

	anyOverflow := false
	wantSums := make([]uint64, len(keys))
	for i := range keys {
		s, ok := exp.oa.SumUint64(groups[i])
		if !ok {
			anyOverflow = true
		}
		wantSums[i] = s
	}
	sums, err := capture1(func() []uint64 { return g.Sum("a") })
	if anyOverflow {
		var ov *bpagg.OverflowError
		if !errors.As(err, &ov) {
			return e.fail("SUM", "a group sum overflows uint64; engine returned %v err=%v, want *bpagg.OverflowError", sums, err)
		}
	} else {
		if err != nil {
			return e.fail("SUM", "unexpected error: %v", err)
		}
		if ferr := cmpSlice(e, "SUM", sums, wantSums); ferr != nil {
			return ferr
		}
	}

	allGroupsHaveValues := true
	for i := range keys {
		if exp.oa.Count(groups[i]) == 0 {
			allGroupsHaveValues = false
		}
	}
	type groupAgg struct {
		name   string
		eng    func(string) []uint64
		oracle func([]bool) (uint64, bool)
	}
	for _, ga := range []groupAgg{
		{"MIN", g.Min, exp.oa.Min},
		{"MAX", g.Max, exp.oa.Max},
		{"MEDIAN", g.Median, exp.oa.Median},
	} {
		vals, err := capture1(func() []uint64 { return ga.eng("a") })
		if !allGroupsHaveValues {
			if err == nil {
				return e.fail(ga.name, "a group has only NULLs; engine returned %v, want the documented empty-group panic", vals)
			}
			continue
		}
		if err != nil {
			return e.fail(ga.name, "unexpected error: %v", err)
		}
		want := make([]uint64, len(keys))
		for i := range keys {
			want[i], _ = ga.oracle(groups[i])
		}
		if ferr := cmpSlice(e, ga.name, vals, want); ferr != nil {
			return ferr
		}
	}

	// The NULL-tolerant rank arms, one radix descent over every shard.
	ranks := map[float64][]valOK{}
	for _, q := range groupedQuantiles {
		for i := range keys {
			var r valOK
			if q == rankQuantile {
				r.v, r.ok = exp.oa.Median(groups[i])
			} else {
				r.v, r.ok = exp.oa.Quantile(groups[i], q)
			}
			ranks[q] = append(ranks[q], r)
		}
	}
	if ferr := cmpGroupedRanks(e, g, keys, ranks); ferr != nil {
		return ferr
	}

	avgs, err := capture1(func() []float64 { return g.Avg("a") })
	if anyOverflow {
		var ov *bpagg.OverflowError
		if !errors.As(err, &ov) {
			return e.fail("AVG", "a group sum overflows uint64; engine returned %v err=%v, want *bpagg.OverflowError", avgs, err)
		}
		return nil
	}
	if err != nil {
		return e.fail("AVG", "unexpected error: %v", err)
	}
	for i := range keys {
		want, ok := exp.oa.Avg(groups[i])
		if !ok {
			want = 0 // matches flat Grouped.Avg: 0 for an all-NULL group
		}
		if avgs[i] != want {
			return e.fail("AVG", "group %d (key %d): engine=%v oracle=%v", i, keys[i], avgs[i], want)
		}
	}
	return nil
}

// ShardSizes derives the sweep's shard-size axis from a case's row count:
// one shard (the degenerate flat-equivalent), an even two-way split, a
// seven-way split, and a fixed odd size chosen to leave a non-divisible
// tail shard for almost any n.
func ShardSizes(c *Case) []int {
	n := len(c.A) + len(c.ExtraA)
	if n == 0 {
		return []int{1}
	}
	ceil := func(parts int) int { return (n + parts - 1) / parts }
	sizes := []int{ceil(1), ceil(2), ceil(7), 77}
	out := sizes[:0]
	seen := map[int]bool{}
	for _, s := range sizes {
		if s >= 1 && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
