package diff

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"bpagg"
	"bpagg/internal/oracle"
)

// High-cardinality grouped axis: differential cases whose group count
// ranges from the direct key index's 1024 keys up past the hashed
// index's growth path (G = 65536), including composite keys, predicates, and
// grouping-column NULLs. The per-group [][]bool oracle in checkGroupBy
// is O(G·n) memory, so this axis carries its own scalar reference
// (expectedGrouped) that accumulates per-key aggregates in one pass —
// the same straight-line code a student would write, just map-shaped.
//
// CheckGrouped runs a lighter matrix than Check — fresh table only,
// grouped aggregates only — because the point is the partition and its
// key indexes, not the cache states (Check's crafted groupby cases cover those).

// HighCardCases generates the grouped high-cardinality scenarios for one
// seed: per layout, G ∈ {1024, 4096, 65536} uniform keys (direct index,
// hashed, hashed and grown), plus a predicate variant, a multi-column
// composite variant, a NULL-groups variant, and at G = 4096 a NULL-bearing
// measure and a key in the other layout (so the measure's windows and the
// key's differ: 64 values against 63). The Deep profile adds G = 16384 and
// larger tables.
func HighCardCases(cfg GenConfig) []Case {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Case
	gs := []int{1024, 4096, 65536}
	if cfg.Deep {
		gs = append(gs, 16384)
	}
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		l := layout.String()
		for _, g := range gs {
			kG := bits.Len(uint(g - 1))
			n := 4 * g
			if limit := 1 << 18; n > limit {
				n = limit
			}
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(g))
			}
			out = append(out, Case{
				Name:   fmt.Sprintf("%s-hicard-G%d-s%d", l, g, cfg.Seed),
				Layout: layout, K: 16, GK: kG,
				A: genValues(rng, "uniform", n, 16), G: keys,
			})
		}

		// Predicate variant: ~half the rows selected, so some keys vanish
		// from the result and per-group tallies shrink mid-partition.
		{
			const g, n = 4096, 16384
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(g))
			}
			a := genValues(rng, "uniform", n, 16)
			out = append(out, Case{
				Name:   fmt.Sprintf("%s-hicard-pred-s%d", l, cfg.Seed),
				Layout: layout, K: 16, GK: 12,
				A: a, G: keys,
				Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.GE, A: a[rng.Intn(n)]}}},
			})
		}

		// Multi-column composite: 6-bit × 10-bit keys pack to 16 bits —
		// up to 65536 distinct composites, hashed by construction.
		{
			const n = 1 << 16
			g1 := make([]uint64, n)
			g2 := make([]uint64, n)
			for i := range g1 {
				g1[i] = uint64(rng.Intn(64))
				g2[i] = uint64(rng.Intn(1024))
			}
			out = append(out, Case{
				Name:   fmt.Sprintf("%s-hicard-multi-s%d", l, cfg.Seed),
				Layout: layout, K: 16, GK: 6, G2K: 10,
				A: genValues(rng, "uniform", n, 16), G: g1, G2: g2,
			})
		}

		// NULL grouping keys: those rows are masked off the partition's
		// base bitmap and join no group.
		{
			const g, n = 1024, 4096
			keys := make([]uint64, n)
			gNulls := make([]bool, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(g))
				gNulls[i] = rng.Intn(8) == 0
			}
			out = append(out, Case{
				Name:   fmt.Sprintf("%s-hicard-gnulls-s%d", l, cfg.Seed),
				Layout: layout, K: 16, GK: 10,
				A: genValues(rng, "uniform", n, 16), G: keys, GNulls: gNulls,
			})
		}
	}

	// Grouped rank at G = 4096: measure NULLs dense enough that some groups
	// hold none but NULLs, and a 12-bit key packed in the other layout (HBP
	// windows of 63 values against VBP's 64). Drawn from a stream of their
	// own, so the cases above keep their data.
	rank := rand.New(rand.NewSource(cfg.Seed + 1<<32))
	for _, layout := range []bpagg.Layout{bpagg.VBP, bpagg.HBP} {
		const g, n = 4096, 16384
		keys, nulls := make([]uint64, n), make([]bool, n)
		for i := range keys {
			keys[i] = uint64(rank.Intn(g))
			nulls[i] = rank.Intn(3) == 0
		}
		a := genValues(rank, "uniform", n, 16)
		out = append(out,
			Case{Name: fmt.Sprintf("%s-hicard-anulls-s%d", layout, cfg.Seed), Layout: layout, K: 16, GK: 12,
				A: a, ANulls: nulls, G: keys},
			Case{Name: fmt.Sprintf("%s-hicard-flipkeys-s%d", layout, cfg.Seed), Layout: layout, K: 16, GK: 12,
				A: a, G: keys, FlipKeys: true,
				Preds: []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.LT, A: 1 << 15}}}},
		)
	}
	return out
}

// groupedExpect is the scalar reference for one case: per-key tallies
// accumulated in a single pass, keys ascending.
type groupedExpect struct {
	keys     []uint64
	counts   []uint64 // selected rows per group (COUNT(*))
	nnz      []uint64 // selected non-NULL measure rows per group
	sums     []uint64
	overflow bool // any group's true sum exceeds uint64
	mins     []uint64
	maxs     []uint64
	allVals  bool                // every group has at least one measure value
	ranks    map[float64][]valOK // per quantile (rankQuantile: MEDIAN), each group's answer
}

// rankQuantile stands for the lower MEDIAN among groupedExpect.ranks'
// quantiles; the rest are the QUANTILE arms' arguments.
const rankQuantile = -1

var groupedQuantiles = []float64{rankQuantile, 0, 0.9, 1}

// expectedGrouped computes the reference grouped aggregates with plain
// map-and-loop code.
func expectedGrouped(c *Case) *groupedExpect {
	e := expected(c) // reuses the predicate/selection machinery
	type acc struct {
		count, nnz, sum uint64
		ovf             bool
		min, max        uint64
		vals            []uint64
	}
	m := map[uint64]*acc{}
	for i, s := range e.sel {
		if !s || e.og.IsNull(i) {
			continue
		}
		key := e.og.Vals[i]
		if e.og2 != nil {
			if e.og2.IsNull(i) {
				continue
			}
			key = key<<uint(c.g2k()) | e.og2.Vals[i]
		}
		a := m[key]
		if a == nil {
			a = &acc{}
			m[key] = a
		}
		a.count++
		if !e.oa.IsNull(i) {
			v := e.oa.Vals[i]
			sum, carry := bits.Add64(a.sum, v, 0)
			a.sum = sum
			if carry != 0 {
				a.ovf = true
			}
			if a.nnz == 0 || v < a.min {
				a.min = v
			}
			if a.nnz == 0 || v > a.max {
				a.max = v
			}
			a.nnz++
			a.vals = append(a.vals, v)
		}
	}
	ge := &groupedExpect{allVals: true, ranks: map[float64][]valOK{}}
	for k := range m {
		ge.keys = append(ge.keys, k)
	}
	sort.Slice(ge.keys, func(i, j int) bool { return ge.keys[i] < ge.keys[j] })
	for _, k := range ge.keys {
		a := m[k]
		ge.counts = append(ge.counts, a.count)
		ge.nnz = append(ge.nnz, a.nnz)
		ge.sums = append(ge.sums, a.sum)
		ge.mins = append(ge.mins, a.min)
		ge.maxs = append(ge.maxs, a.max)
		if a.ovf {
			ge.overflow = true
		}
		if a.nnz == 0 {
			ge.allVals = false
		}
		oc := oracle.New(a.vals)
		for _, q := range groupedQuantiles {
			var r valOK
			if q == rankQuantile {
				r.v, r.ok = oc.Median(oc.All())
			} else {
				r.v, r.ok = oc.Quantile(oc.All(), q)
			}
			ge.ranks[q] = append(ge.ranks[q], r)
		}
	}
	return ge
}

// CheckGrouped runs the grouped differential matrix for one
// high-cardinality case: fresh table, each thread count, over the lazy
// query and over a materialized selection, with the partition tier
// asserted against the key-width rule on both.
func CheckGrouped(c Case) error {
	if err := validate(&c); err != nil {
		return err
	}
	exp := expectedGrouped(&c)
	threads := c.Threads
	if len(threads) == 0 {
		threads = []int{1, 8}
	}
	tbl := buildTable(&c)
	appendExtras(tbl, &c)

	for _, th := range threads {
		for _, route := range groupRoutes {
			if err := checkGrouped1(&c, exp, tbl, th, route); err != nil {
				return err
			}
		}
		if err := checkGroupedRank(&c, exp, bpagg.PartitionTable(tbl), th); err != nil {
			return err
		}
	}
	return nil
}

// checkGroupedRank runs the NULL-tolerant grouped MEDIAN and QUANTILE over
// the table served as a one-shard store: a group whose measure rows are all
// NULL must answer ok=false, every other group its oracle value.
func checkGroupedRank(c *Case, exp *groupedExpect, st *bpagg.ShardedTable, th int) error {
	e := tag{c, "fresh", "grouped-rank", th}
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
	return cmpGroupedRanks(e, g, exp.keys, exp.ranks)
}

// cmpGroupedRanks compares every grouped rank arm — MedianOk and each
// QuantileOk of groupedQuantiles — with the per-group oracle answers.
func cmpGroupedRanks(e tag, g *bpagg.ShardedGrouped, keys []uint64, want map[float64][]valOK) error {
	if ferr := cmpSlice(e, "KEYS", g.Keys(), keys); ferr != nil {
		return ferr
	}
	ctx := context.Background()
	for _, q := range groupedQuantiles {
		var vals []uint64
		var oks []bool
		var err error
		agg := fmt.Sprintf("QUANTILE-OK(%v)", q)
		if q == rankQuantile {
			agg = "MEDIAN-OK"
			vals, oks, err = g.MedianOkContext(ctx, "a")
		} else {
			vals, oks, err = g.QuantileOkContext(ctx, "a", q)
		}
		if err != nil {
			return e.fail(agg, "unexpected error: %v", err)
		}
		for i, w := range want[q] {
			if oks[i] != w.ok || w.ok && vals[i] != w.v {
				return e.fail(agg, "group %d (key %d): engine=%d ok=%v oracle=%d ok=%v", i, keys[i], vals[i], oks[i], w.v, w.ok)
			}
		}
	}
	return nil
}

// wantStrategy is the index rule the engine must follow for every grouped
// query: direct when the grouping columns' packed width is within the
// 10-bit direct key budget, hash otherwise. Nothing else — NULL keys, a
// materialized selection, a row range — may move it.
func wantStrategy(c *Case) bpagg.GroupStrategy {
	packed := c.gk()
	if c.G2 != nil {
		packed += c.g2k()
	}
	if packed <= 10 { // core.DirectKeyBits
		return bpagg.GroupDirect
	}
	return bpagg.GroupHash
}

func checkGrouped1(c *Case, exp *groupedExpect, tbl *bpagg.Table, th int, route string) error {
	e := tag{c, "fresh", "grouped-" + route, th}

	g, err := capture1(func() *bpagg.Grouped { return groupByRoute(c, tbl, th, route) })
	if err != nil {
		return e.fail("GROUPBY", "unexpected panic: %v", err)
	}
	if want := wantStrategy(c); g.Strategy() != want {
		return e.fail("STRATEGY", "engine chose %s tier, key-width rule says %s (%d keys, gk=%d)",
			g.Strategy(), want, len(exp.keys), c.gk())
	}

	if ferr := cmpSlice(e, "KEYS", g.Keys(), exp.keys); ferr != nil {
		return ferr
	}
	if ferr := cmpSlice(e, "COUNT", g.Count(), exp.counts); ferr != nil {
		return ferr
	}

	sums, err := capture1(func() []uint64 { return g.Sum("a") })
	if exp.overflow {
		var ov *bpagg.OverflowError
		if !errors.As(err, &ov) {
			return e.fail("SUM", "a group sum overflows uint64; engine returned err=%v, want *bpagg.OverflowError", err)
		}
	} else {
		if err != nil {
			return e.fail("SUM", "unexpected error: %v", err)
		}
		if ferr := cmpSlice(e, "SUM", sums, exp.sums); ferr != nil {
			return ferr
		}
	}

	if exp.allVals {
		mins, err := capture1(func() []uint64 { return g.Min("a") })
		if err != nil {
			return e.fail("MIN", "unexpected error: %v", err)
		}
		if ferr := cmpSlice(e, "MIN", mins, exp.mins); ferr != nil {
			return ferr
		}
		maxs, err := capture1(func() []uint64 { return g.Max("a") })
		if err != nil {
			return e.fail("MAX", "unexpected error: %v", err)
		}
		if ferr := cmpSlice(e, "MAX", maxs, exp.maxs); ferr != nil {
			return ferr
		}
	}

	if exp.allVals {
		meds, err := capture1(func() []uint64 { return g.Median("a") })
		if err != nil {
			return e.fail("MEDIAN", "unexpected error: %v", err)
		}
		for i, w := range exp.ranks[rankQuantile] {
			if meds[i] != w.v {
				return e.fail("MEDIAN", "group %d (key %d): engine=%d oracle=%d", i, exp.keys[i], meds[i], w.v)
			}
		}
	}

	if !exp.overflow && exp.allVals {
		avgs, err := capture1(func() []float64 { return g.Avg("a") })
		if err != nil {
			return e.fail("AVG", "unexpected error: %v", err)
		}
		for i := range exp.keys {
			want := float64(exp.sums[i]) / float64(exp.nnz[i])
			if avgs[i] != want {
				return e.fail("AVG", "group %d (key %d): engine=%v oracle=%v", i, exp.keys[i], avgs[i], want)
			}
		}
	}
	return nil
}
