// Package diff is the differential harness that drives the real engine
// and the naive oracle (package oracle) over the same adversarial tables
// and demands bit-identical answers — the paper's §V methodology of
// validating SWAR kernels against scalar recomputation, built into the
// repo permanently (DESIGN.md §11).
//
// A Case pins one table shape: layout, bit width, bit-group size τ, data
// (with optional NULLs, a second predicate column, a grouping column, and
// post-build appends that land mid-segment), and a predicate conjunction.
// Check runs the full execution matrix over it:
//
//	{fresh, rebuilt, reloaded} cache state ×
//	{1, 8} threads ×
//	{fused, two-phase, reconstruct} route ×
//	{COUNT(*), COUNT, SUM, MIN, MAX, AVG, MEDIAN, rank, quantile}
//
// plus GROUP BY, TopK/BottomK spot checks, and the positional axis
// (rangediff.go): Range over a deterministic probe battery and Window
// over tumbling/sliding/gapped shapes, each verdict computed over the
// positional slice of the case's selection — so the prefix-sum range
// index and the bitmap fallback answer to the same arbiter. Every cell
// is compared against the oracle; a disagreement returns an error naming
// the exact cell so the shape can be replayed as a regression test.
//
// The oracle is also the arbiter for overflow: when its big.Int SUM does
// not fit in uint64, the engine must refuse with *bpagg.OverflowError
// carrying the exact 128-bit total — a wrapped uint64 is a divergence.
package diff

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"bpagg"
	"bpagg/internal/oracle"
)

// PredSpec is one WHERE conjunct: a predicate against a named column of
// the case's table ("a", "b", or "g").
type PredSpec struct {
	Col  string
	Pred oracle.Pred
}

// Case is one differential scenario. A is the aggregate column ("a");
// B and G, when non-nil, add a second predicate column ("b") and a
// grouping column ("g") of the same length and τ. G2 adds a second
// grouping column ("g2"): GROUP BY then uses the composite (g, g2) key.
// Columns share the case's bit width K unless GK/G2K override the
// grouping columns' widths (0 = K) — high-cardinality grouped cases need
// a wide key next to a narrow measure. GNulls marks NULL rows of the
// grouping column; rows NULL in any grouping column belong to no group.
// ExtraA/B/G/G2 are appended after each state's cache treatment
// (rebuild, reload), so they land mid-segment on warmed caches — the
// append-path invalidation scenario. RowAppend forces
// one-value-at-a-time appends (the appendOne cache-maintenance path)
// instead of bulk packing. FlipKeys packs the grouping columns in the
// other layout than the rest, so a measure and its key can disagree on
// window size (an HBP column's holds 63 or 60 values, not 64).
type Case struct {
	Name     string
	Layout   bpagg.Layout
	K        int
	Tau      int // 0 = library default
	GK       int // grouping-column width; 0 = K
	G2K      int // second grouping-column width; 0 = K
	FlipKeys bool

	A      []uint64
	ANulls []bool
	B      []uint64
	G      []uint64
	GNulls []bool
	G2     []uint64

	ExtraA  []uint64
	ExtraB  []uint64
	ExtraG  []uint64
	ExtraG2 []uint64

	Preds     []PredSpec
	Threads   []int // nil = {1, 8}
	RowAppend bool
}

// gk and g2k resolve the grouping-column widths.
func (c *Case) gk() int {
	if c.GK != 0 {
		return c.GK
	}
	return c.K
}

func (c *Case) g2k() int {
	if c.G2K != 0 {
		return c.G2K
	}
	return c.K
}

// valOK is a (value, found) aggregate result.
type valOK struct {
	v  uint64
	ok bool
}

// expectation is the oracle's verdict for a case, computed once.
type expectation struct {
	oa, ob, og *oracle.Column
	og2        *oracle.Column
	sel        []bool

	countRows uint64
	count     uint64
	sumFits   bool
	sumU      uint64
	sumBig    fmt.Stringer // *big.Int; Stringer keeps the import local
	min, max  valOK
	med       valOK
	avg       float64
	avgOK     bool
	rs        []uint64
	ranks     map[uint64]valOK
	qs        []float64
	quants    map[float64]valOK
}

// tag names one cell of the execution matrix for error messages.
type tag struct {
	c     *Case
	state string
	route string
	th    int
}

func (e tag) fail(agg, format string, args ...any) error {
	return fmt.Errorf("case %s [state=%s route=%s threads=%d] %s: %s",
		e.c.Name, e.state, e.route, e.th, agg, fmt.Sprintf(format, args...))
}

// Check runs the full differential matrix for one case and returns the
// first divergence found (nil when engine and oracle agree everywhere).
func Check(c Case) error {
	if err := validate(&c); err != nil {
		return err
	}
	exp := expected(&c)
	threads := c.Threads
	if len(threads) == 0 {
		threads = []int{1, 8}
	}

	type state struct {
		name string
		tbl  *bpagg.Table
	}
	var states []state

	fresh := buildTable(&c)
	appendExtras(fresh, &c)
	states = append(states, state{"fresh", fresh})

	rebuilt := buildTable(&c)
	for _, name := range rebuilt.Columns() {
		rebuilt.Column(name).RebuildSegmentAggregates()
	}
	appendExtras(rebuilt, &c) // extras land on freshly rebuilt caches
	states = append(states, state{"rebuilt", rebuilt})

	var buf bytes.Buffer
	if _, err := buildTable(&c).WriteTo(&buf); err != nil {
		return fmt.Errorf("case %s: serialize: %w", c.Name, err)
	}
	reloaded, err := bpagg.ReadTable(&buf)
	if err != nil {
		return fmt.Errorf("case %s: reload: %w", c.Name, err)
	}
	appendExtras(reloaded, &c) // extras land on deserialized, rebuilt caches
	states = append(states, state{"reloaded", reloaded})

	for _, st := range states {
		for ti, th := range threads {
			if err := checkFused(&c, exp, st.name, st.tbl, th); err != nil {
				return err
			}
			if err := checkColumn(&c, exp, st.name, st.tbl, th, "twophase"); err != nil {
				return err
			}
			if ti == 0 {
				if err := checkColumn(&c, exp, st.name, st.tbl, th, "recon"); err != nil {
					return err
				}
			}
			if err := checkRange(&c, exp, st.name, st.tbl, th, ti == 0); err != nil {
				return err
			}
			if err := checkWindow(&c, exp, st.name, st.tbl, th, ti == 0); err != nil {
				return err
			}
			if c.G != nil {
				for _, route := range groupRoutes {
					if err := checkGroupBy(&c, exp, st.name, st.tbl, th, route); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func validate(c *Case) error {
	n := len(c.A)
	if c.ANulls != nil && len(c.ANulls) != n {
		return fmt.Errorf("case %s: ANulls length %d != %d", c.Name, len(c.ANulls), n)
	}
	if c.B != nil && len(c.B) != n {
		return fmt.Errorf("case %s: B length %d != %d", c.Name, len(c.B), n)
	}
	if c.G != nil && len(c.G) != n {
		return fmt.Errorf("case %s: G length %d != %d", c.Name, len(c.G), n)
	}
	if c.GNulls != nil && (c.G == nil || len(c.GNulls) != n) {
		return fmt.Errorf("case %s: GNulls length %d != G length %d", c.Name, len(c.GNulls), len(c.G))
	}
	if c.G2 != nil && (c.G == nil || len(c.G2) != n) {
		return fmt.Errorf("case %s: G2 requires G and length %d, got %d", c.Name, n, len(c.G2))
	}
	if c.B != nil && len(c.ExtraB) != len(c.ExtraA) {
		return fmt.Errorf("case %s: ExtraB length %d != ExtraA %d", c.Name, len(c.ExtraB), len(c.ExtraA))
	}
	if c.G != nil && len(c.ExtraG) != len(c.ExtraA) {
		return fmt.Errorf("case %s: ExtraG length %d != ExtraA %d", c.Name, len(c.ExtraG), len(c.ExtraA))
	}
	if c.G2 != nil && len(c.ExtraG2) != len(c.ExtraA) {
		return fmt.Errorf("case %s: ExtraG2 length %d != ExtraA %d", c.Name, len(c.ExtraG2), len(c.ExtraA))
	}
	return nil
}

// expected computes the oracle's verdict over the full (base + extra)
// data.
func expected(c *Case) *expectation {
	fullA := concat(c.A, c.ExtraA)
	var fullNulls []bool
	if c.ANulls != nil {
		fullNulls = append(append([]bool(nil), c.ANulls...), make([]bool, len(c.ExtraA))...)
	}
	e := &expectation{oa: &oracle.Column{Vals: fullA, Nulls: fullNulls}}
	if c.B != nil {
		e.ob = oracle.New(concat(c.B, c.ExtraB))
	}
	if c.G != nil {
		var gNulls []bool
		if c.GNulls != nil {
			gNulls = append(append([]bool(nil), c.GNulls...), make([]bool, len(c.ExtraG))...)
		}
		e.og = &oracle.Column{Vals: concat(c.G, c.ExtraG), Nulls: gNulls}
	}
	if c.G2 != nil {
		e.og2 = oracle.New(concat(c.G2, c.ExtraG2))
	}

	e.sel = e.oa.All()
	for _, ps := range c.Preds {
		e.sel = oracle.And(e.sel, e.oracleCol(ps.Col).Select(ps.Pred))
	}

	e.countRows = oracle.CountRows(e.sel)
	e.count = e.oa.Count(e.sel)
	big := e.oa.Sum(e.sel)
	e.sumBig = big
	e.sumU, e.sumFits = e.oa.SumUint64(e.sel)
	e.min.v, e.min.ok = e.oa.Min(e.sel)
	e.max.v, e.max.ok = e.oa.Max(e.sel)
	e.med.v, e.med.ok = e.oa.Median(e.sel)
	e.avg, e.avgOK = e.oa.Avg(e.sel)

	// Rank r = (count+1)/2 is covered by MEDIAN, so the explicit rank set
	// probes the remaining boundaries: invalid 0, first, last, past-last.
	e.ranks = map[uint64]valOK{}
	for _, r := range []uint64{0, 1, e.count, e.count + 1} {
		if _, seen := e.ranks[r]; seen {
			continue
		}
		var v valOK
		v.v, v.ok = e.oa.Rank(e.sel, r)
		e.ranks[r] = v
		e.rs = append(e.rs, r)
	}
	// The q=0 and q=1 clamp edges of the nearest-rank formula are
	// size-independent, so probing them on small tables suffices; large
	// tables keep one mid quantile (each quantile is a full rank
	// refinement — the priciest aggregate in the matrix).
	e.quants = map[float64]valOK{}
	e.qs = []float64{0.5}
	if e.count <= 65 {
		e.qs = []float64{0, 0.5, 1}
	}
	for _, q := range e.qs {
		var v valOK
		v.v, v.ok = e.oa.Quantile(e.sel, q)
		e.quants[q] = v
	}
	return e
}

func (e *expectation) oracleCol(name string) *oracle.Column {
	switch name {
	case "a":
		return e.oa
	case "b":
		return e.ob
	case "g":
		return e.og
	case "g2":
		return e.og2
	}
	panic(fmt.Sprintf("diff: unknown column %q", name))
}

func concat(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	return append(append([]uint64(nil), a...), b...)
}

// buildTable packs the case's base data into a fresh engine table.
func buildTable(c *Case) *bpagg.Table {
	keys := c.Layout
	if c.FlipKeys {
		keys = bpagg.VBP + bpagg.HBP - c.Layout
	}
	names := []string{"a"}
	cols := []*bpagg.Column{buildColumn(c, c.Layout, c.K, c.A, c.ANulls)}
	if c.B != nil {
		names = append(names, "b")
		cols = append(cols, buildColumn(c, c.Layout, c.K, c.B, nil))
	}
	if c.G != nil {
		names = append(names, "g")
		cols = append(cols, buildColumn(c, keys, c.gk(), c.G, c.GNulls))
	}
	if c.G2 != nil {
		names = append(names, "g2")
		cols = append(cols, buildColumn(c, keys, c.g2k(), c.G2, nil))
	}
	return bpagg.NewTableFromColumns(names, cols)
}

func buildColumn(c *Case, layout bpagg.Layout, k int, vals []uint64, nulls []bool) *bpagg.Column {
	var opts []bpagg.ColumnOption
	if c.Tau != 0 {
		opts = append(opts, bpagg.WithGroupBits(c.Tau))
	}
	col := bpagg.NewColumn(layout, k, opts...)
	switch {
	case nulls != nil:
		for i, v := range vals {
			if nulls[i] {
				col.AppendNull()
			} else {
				col.Append(v)
			}
		}
	case c.RowAppend:
		for _, v := range vals {
			col.Append(v)
		}
	default:
		col.Append(vals...)
	}
	return col
}

// appendExtras lands the case's extra rows on the (possibly rebuilt or
// reloaded) table — mid-segment appends over warmed caches.
func appendExtras(t *bpagg.Table, c *Case) {
	if len(c.ExtraA) == 0 {
		return
	}
	m := map[string][]uint64{"a": c.ExtraA}
	if c.B != nil {
		m["b"] = c.ExtraB
	}
	if c.G != nil {
		m["g"] = c.ExtraG
	}
	if c.G2 != nil {
		m["g2"] = c.ExtraG2
	}
	t.AppendColumnar(m)
}

// enginePred translates an oracle predicate to the engine's form.
func enginePred(p oracle.Pred) bpagg.Predicate {
	switch p.Op {
	case oracle.EQ:
		return bpagg.Equal(p.A)
	case oracle.NE:
		return bpagg.NotEqual(p.A)
	case oracle.LT:
		return bpagg.Less(p.A)
	case oracle.LE:
		return bpagg.LessEq(p.A)
	case oracle.GT:
		return bpagg.Greater(p.A)
	case oracle.GE:
		return bpagg.GreaterEq(p.A)
	case oracle.Between:
		return bpagg.Between(p.A, p.B)
	case oracle.In:
		return bpagg.In(p.List...)
	}
	panic(fmt.Sprintf("diff: unknown op %d", int(p.Op)))
}

// newQuery builds the case's query on the given table (fused-eligible:
// no Selection call).
func newQuery(c *Case, tbl *bpagg.Table, th int) *bpagg.Query {
	q := tbl.Query().With(bpagg.Parallel(th))
	for _, ps := range c.Preds {
		q = q.Where(ps.Col, enginePred(ps.Pred))
	}
	return q
}

// catchPanic converts a panic from the engine's plain (non-Context) API
// into an error so the harness can compare it against expectations.
func catchPanic(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = e
		} else {
			*err = fmt.Errorf("panic: %v", r)
		}
	}
}

func capture1[T any](f func() T) (v T, err error) {
	defer catchPanic(&err)
	v = f()
	return
}

func capture2[T any](f func() (T, bool)) (v T, ok bool, err error) {
	defer catchPanic(&err)
	v, ok = f()
	return
}

// checkFused drives the lazy Query API — the fused path whenever the
// planner allows it, with its documented fallbacks otherwise.
func checkFused(c *Case, exp *expectation, state string, tbl *bpagg.Table, th int) error {
	e := tag{c, state, "fused", th}
	ctx := context.Background()
	nq := func() *bpagg.Query { return newQuery(c, tbl, th) }

	cr, err := capture1(func() uint64 { return nq().CountRows() })
	if ferr := cmpU64(e, "COUNT(*)", cr, err, exp.countRows); ferr != nil {
		return ferr
	}

	sum, err := capture1(func() uint64 { return nq().Sum("a") })
	if ferr := cmpSum(e, "SUM", sum, err, exp); ferr != nil {
		return ferr
	}

	s2, c2, err := nq().SumCountContext(ctx, "a")
	if ferr := cmpSum(e, "SUM(ctx)", s2, err, exp); ferr != nil {
		return ferr
	}
	if exp.sumFits {
		if ferr := cmpU64(e, "COUNT(a)", c2, err, exp.count); ferr != nil {
			return ferr
		}
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

// checkColumn drives the two-phase path: materialize the selection once,
// then run every aggregate through the Column Context API. route selects
// the execution options: "twophase" (bit-parallel kernels) or "recon"
// (reconstruction baseline).
func checkColumn(c *Case, exp *expectation, state string, tbl *bpagg.Table, th int, route string) error {
	e := tag{c, state, route, th}
	ctx := context.Background()

	opts := []bpagg.ExecOption{bpagg.Parallel(th)}
	if route == "recon" {
		opts = append(opts, bpagg.Access(bpagg.Reconstruct))
	}

	q := newQuery(c, tbl, th)
	sel, err := capture1(func() *bpagg.Bitmap { return q.Selection() })
	if err != nil {
		return e.fail("Selection", "unexpected panic: %v", err)
	}
	col := tbl.Column("a")

	if ferr := cmpU64(e, "COUNT(*)", uint64(sel.Count()), nil, exp.countRows); ferr != nil {
		return ferr
	}
	cnt, err := col.CountContext(ctx, sel)
	if ferr := cmpU64(e, "COUNT(a)", cnt, err, exp.count); ferr != nil {
		return ferr
	}

	sum, err := col.SumContext(ctx, sel, opts...)
	if ferr := cmpSum(e, "SUM", sum, err, exp); ferr != nil {
		return ferr
	}
	psum, err := capture1(func() uint64 { return col.Sum(sel, opts...) })
	if ferr := cmpSum(e, "SUM(plain)", psum, err, exp); ferr != nil {
		return ferr
	}

	mn, ok, err := col.MinContext(ctx, sel, opts...)
	if ferr := cmpOK(e, "MIN", mn, ok, err, exp.min); ferr != nil {
		return ferr
	}
	mx, ok, err := col.MaxContext(ctx, sel, opts...)
	if ferr := cmpOK(e, "MAX", mx, ok, err, exp.max); ferr != nil {
		return ferr
	}

	av, ok, err := col.AvgContext(ctx, sel, opts...)
	if ferr := cmpAvg(e, "AVG", av, ok, err, exp); ferr != nil {
		return ferr
	}

	md, ok, err := col.MedianContext(ctx, sel, opts...)
	if ferr := cmpOK(e, "MEDIAN", md, ok, err, exp.med); ferr != nil {
		return ferr
	}

	for _, r := range exp.rs {
		v, ok, err := col.RankContext(ctx, sel, r, opts...)
		if ferr := cmpOK(e, fmt.Sprintf("RANK(%d)", r), v, ok, err, exp.ranks[r]); ferr != nil {
			return ferr
		}
	}
	for _, qq := range exp.qs {
		v, ok, err := col.QuantileContext(ctx, sel, qq, opts...)
		if ferr := cmpOK(e, fmt.Sprintf("QUANTILE(%v)", qq), v, ok, err, exp.quants[qq]); ferr != nil {
			return ferr
		}
	}

	if route == "twophase" {
		for _, k := range []int{1, 3} {
			eng, err := capture1(func() []uint64 { return col.TopK(sel, k, opts...) })
			if err != nil {
				return e.fail(fmt.Sprintf("TOPK(%d)", k), "unexpected panic: %v", err)
			}
			if ferr := cmpSlice(e, fmt.Sprintf("TOPK(%d)", k), eng, exp.oa.TopK(exp.sel, k)); ferr != nil {
				return ferr
			}
			eng, err = capture1(func() []uint64 { return col.BottomK(sel, k, opts...) })
			if err != nil {
				return e.fail(fmt.Sprintf("BOTTOMK(%d)", k), "unexpected panic: %v", err)
			}
			if ferr := cmpSlice(e, fmt.Sprintf("BOTTOMK(%d)", k), eng, exp.oa.BottomK(exp.sel, k)); ferr != nil {
				return ferr
			}
		}
	}
	return nil
}

// groupRoutes is the input axis of the grouped checks: "lazy" groups the
// query as built, "materialized" calls Selection() first so the partition
// starts from a ready bitmap. Both are the same single-pass partition and
// must agree with the naive oracle bit for bit, on the tier the key
// widths select.
var groupRoutes = []string{"lazy", "materialized"}

// groupByRoute builds the case's query on the given route and groups it
// by g (and g2 when the case has a second grouping column).
func groupByRoute(c *Case, tbl *bpagg.Table, th int, route string) *bpagg.Grouped {
	q := newQuery(c, tbl, th)
	if route == "materialized" {
		q.Selection()
	}
	if c.G2 != nil {
		return q.GroupBy("g", "g2")
	}
	return q.GroupBy("g")
}

// checkGroupBy compares GROUP BY keys and per-group aggregates on one
// route (see groupRoutes). When the case has a second grouping column the
// engine groups by the packed (g, g2) composite and the oracle by
// GroupByComposite with the same per-column widths.
func checkGroupBy(c *Case, exp *expectation, state string, tbl *bpagg.Table, th int, route string) error {
	e := tag{c, state, "groupby-" + route, th}
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

	g, err := capture1(func() *bpagg.Grouped { return groupByRoute(c, tbl, th, route) })
	if err != nil {
		return e.fail("GROUPBY", "unexpected panic: %v", err)
	}
	if want := wantStrategy(c); g.Strategy() != want {
		return e.fail("GROUPBY", "engine chose %s tier, key-width rule says %s", g.Strategy(), want)
	}
	if ferr := cmpSlice(e, "KEYS", g.Keys(), keys); ferr != nil {
		return ferr
	}

	wantCounts := make([]uint64, len(keys))
	for i := range keys {
		wantCounts[i] = oracle.CountRows(groups[i])
	}
	if ferr := cmpSlice(e, "COUNT", g.Count(), wantCounts); ferr != nil {
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

	// A group whose aggregate-column rows are all NULL has no MIN/MAX/
	// MEDIAN; the engine's plain Grouped methods document a panic there.
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
			want = 0 // engine's Grouped.Avg yields 0 for an all-NULL group
		}
		if avgs[i] != want {
			return e.fail("AVG", "group %d (key %d): engine=%v oracle=%v", i, keys[i], avgs[i], want)
		}
	}
	return nil
}

func cmpU64(e tag, agg string, got uint64, gotErr error, want uint64) error {
	if gotErr != nil {
		return e.fail(agg, "unexpected error: %v", gotErr)
	}
	if got != want {
		return e.fail(agg, "engine=%d oracle=%d", got, want)
	}
	return nil
}

func cmpOK(e tag, agg string, got uint64, gotOK bool, gotErr error, want valOK) error {
	if gotErr != nil {
		return e.fail(agg, "unexpected error: %v", gotErr)
	}
	if gotOK != want.ok {
		return e.fail(agg, "engine ok=%v oracle ok=%v (engine=%d oracle=%d)", gotOK, want.ok, got, want.v)
	}
	if want.ok && got != want.v {
		return e.fail(agg, "engine=%d oracle=%d", got, want.v)
	}
	return nil
}

// cmpSum is overflow-aware: when the oracle's exact sum does not fit in
// uint64, the engine must produce *bpagg.OverflowError carrying the true
// 128-bit total; any plain uint64 result is a silent wrap.
func cmpSum(e tag, agg string, got uint64, gotErr error, exp *expectation) error {
	if !exp.sumFits {
		var ov *bpagg.OverflowError
		if !errors.As(gotErr, &ov) {
			return e.fail(agg, "true sum %s overflows uint64; engine returned %d err=%v, want *bpagg.OverflowError",
				exp.sumBig.String(), got, gotErr)
		}
		if ov.Big().String() != exp.sumBig.String() {
			return e.fail(agg, "OverflowError reports %s, true sum is %s", ov.Big().String(), exp.sumBig.String())
		}
		return nil
	}
	if gotErr != nil {
		return e.fail(agg, "unexpected error: %v", gotErr)
	}
	if got != exp.sumU {
		return e.fail(agg, "engine=%d oracle=%d", got, exp.sumU)
	}
	return nil
}

// cmpAvg mirrors cmpSum: AVG = SUM/COUNT, so an overflowing sum must
// surface as the same typed error.
func cmpAvg(e tag, agg string, got float64, gotOK bool, gotErr error, exp *expectation) error {
	if !exp.sumFits {
		var ov *bpagg.OverflowError
		if !errors.As(gotErr, &ov) {
			return e.fail(agg, "true sum %s overflows uint64; engine returned %v,%v err=%v, want *bpagg.OverflowError",
				exp.sumBig.String(), got, gotOK, gotErr)
		}
		return nil
	}
	if gotErr != nil {
		return e.fail(agg, "unexpected error: %v", gotErr)
	}
	if gotOK != exp.avgOK {
		return e.fail(agg, "engine ok=%v oracle ok=%v", gotOK, exp.avgOK)
	}
	if exp.avgOK && got != exp.avg {
		return e.fail(agg, "engine=%v oracle=%v (must be bit-identical)", got, exp.avg)
	}
	return nil
}

func cmpSlice[T comparable](e tag, agg string, got, want []T) error {
	if len(got) != len(want) {
		return e.fail(agg, "engine=%v oracle=%v (length %d vs %d)", got, want, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return e.fail(agg, "index %d: engine=%v oracle=%v (full: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
	return nil
}
