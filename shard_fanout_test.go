package bpagg

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The sharded facade has one fan-out and one merge (DESIGN.md §15): these
// tests pin what that skeleton must keep — the work every public aggregate
// does per shard, and the method sets of the twins that share it.

var recordFanOutPin = flag.Bool("record-fanout-pin", false,
	"rewrite testdata/shard_fanout_counters.golden (only meaningful on the commit the pin is recorded from)")

const fanOutPinFile = "testdata/shard_fanout_counters.golden"

// fanOutPinHeader names the commit the table was recorded on. The pin is a
// refactoring guard: it is re-recorded only by a change that means to move
// a counter, and that change says which and why.
const fanOutPinHeader = "# ExecStats (timers dropped, zero counters omitted) and result of every sharded aggregate at Parallel(1),\n" +
	"# recorded on parent commit 3eedcdba8b0343cf820d5d865e2201a08747c4ea (PR 17) with\n" +
	"#   go test -run TestShardFanOutCounterPin -record-fanout-pin .\n" +
	"# The 208 /range/GroupBy lines were re-recorded on PR 20, which moved GROUP BY under a row range from the\n" +
	"# per-group walk to the single-pass partition (results unchanged, every counter lower or equal). The 192\n" +
	"# grouped MEDIAN/QUANTILE lines and grouped lines over the NULL-bearing n were re-recorded when every\n" +
	"# group's rank became one radix descent and NULL-bearing measures were banked (results unchanged). The 80\n" +
	"# scalar Median/Rank/Quantile lines over two or more live shards were re-recorded when a sharded rank became\n" +
	"# one descent over every live shard instead of a binary search of counting fan-outs (results unchanged;\n" +
	"# Aggregates=1 and the one-shard line's RadixRounds). Every other line still dates from 3eedcdb.\n"

// pinTable builds rows rows in one layout: v (12-bit measure), n (v with
// every 5th row NULL), a (12-bit, ascending, so shard bounds prune) and g
// (3-bit group key).
func pinTable(layout Layout, rows int) *Table {
	v, n, a, g := NewColumn(layout, 12), NewColumn(layout, 12), NewColumn(layout, 12), NewColumn(layout, 3)
	for i := 0; i < rows; i++ {
		x := uint64(i*2654435761) >> 7 & 0xfff
		v.Append(x)
		if i%5 == 0 {
			n.AppendNull()
		} else {
			n.Append(x)
		}
		a.Append(uint64(i * 4096 / rows))
		g.Append(uint64(i*40503) >> 3 & 7)
	}
	return NewTableFromColumns([]string{"v", "n", "a", "g"}, []*Column{v, n, a, g})
}

// pinStats renders the non-timer, non-zero counters of s.
func pinStats(s ExecStats) string {
	var b strings.Builder
	rv := reflect.ValueOf(s)
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if strings.HasSuffix(name, "Nanos") || rv.Field(i).Uint() == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%d", name, rv.Field(i).Uint())
	}
	return b.String()
}

// pinAggs is what every sharded aggregate source — ranged or not — answers.
type pinAggs interface {
	CountRowsContext(context.Context) (uint64, error)
	CountContext(context.Context, string) (uint64, error)
	SumContext(context.Context, string) (uint64, error)
	SumCountContext(context.Context, string) (uint64, uint64, error)
	MinContext(context.Context, string) (uint64, bool, error)
	MaxContext(context.Context, string) (uint64, bool, error)
	AvgContext(context.Context, string) (float64, bool, error)
	MedianContext(context.Context, string) (uint64, bool, error)
	RankContext(context.Context, string, uint64) (uint64, bool, error)
	QuantileContext(context.Context, string, float64) (uint64, bool, error)
	GroupByContext(context.Context, ...string) (*ShardedGrouped, error)
}

// onGroups is agg over the GROUP BY g partition of whatever it is asked of.
func onGroups(agg func(ctx context.Context, g *ShardedGrouped) (any, error)) func(context.Context, pinAggs) (any, error) {
	return func(ctx context.Context, q pinAggs) (any, error) {
		g, err := q.GroupByContext(ctx, "g")
		if err != nil {
			return nil, err
		}
		return agg(ctx, g)
	}
}

// pinOps is every public aggregate of the scalar and grouped surfaces.
var pinOps = []struct {
	name string
	run  func(ctx context.Context, q pinAggs) (any, error)
}{
	{"CountRows", func(ctx context.Context, q pinAggs) (any, error) { return c1(q.CountRowsContext(ctx)) }},
	{"Count(v)", func(ctx context.Context, q pinAggs) (any, error) { return c1(q.CountContext(ctx, "v")) }},
	{"Count(n)", func(ctx context.Context, q pinAggs) (any, error) { return c1(q.CountContext(ctx, "n")) }},
	{"Sum(v)", func(ctx context.Context, q pinAggs) (any, error) { return c1(q.SumContext(ctx, "v")) }},
	{"Sum(n)", func(ctx context.Context, q pinAggs) (any, error) { return c1(q.SumContext(ctx, "n")) }},
	{"SumCount(v)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.SumCountContext(ctx, "v")) }},
	{"Min(v)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.MinContext(ctx, "v")) }},
	{"Max(v)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.MaxContext(ctx, "v")) }},
	{"Max(n)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.MaxContext(ctx, "n")) }},
	{"Avg(v)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.AvgContext(ctx, "v")) }},
	{"Avg(n)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.AvgContext(ctx, "n")) }},
	{"Median(v)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.MedianContext(ctx, "v")) }},
	{"Median(n)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.MedianContext(ctx, "n")) }},
	{"Rank(v,5)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.RankContext(ctx, "v", 5)) }},
	{"Quantile(v,0.9)", func(ctx context.Context, q pinAggs) (any, error) { return c2(q.QuantileContext(ctx, "v", 0.9)) }},
	{"GroupBy(g)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return g.Keys(), nil })},
	{"GroupBy(g).Count", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.CountContext(ctx)) })},
	{"GroupBy(g).NonNullCount(n)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.NonNullCountContext(ctx, "n")) })},
	{"GroupBy(g).Sum(v)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.SumContext(ctx, "v")) })},
	{"GroupBy(g).Min(v)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.MinContext(ctx, "v")) })},
	{"GroupBy(g).Max(v)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.MaxContext(ctx, "v")) })},
	{"GroupBy(g).MinOk(n)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c2(g.MinOkContext(ctx, "n")) })},
	{"GroupBy(g).MaxOk(n)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c2(g.MaxOkContext(ctx, "n")) })},
	{"GroupBy(g).Avg(v)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.AvgContext(ctx, "v")) })},
	{"GroupBy(g).Avg(n)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.AvgContext(ctx, "n")) })},
	{"GroupBy(g).Median(v)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c1(g.MedianContext(ctx, "v")) })},
	{"GroupBy(g).MedianOk(n)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) { return c2(g.MedianOkContext(ctx, "n")) })},
	{"GroupBy(g).QuantileOk(v,0.9)", onGroups(func(ctx context.Context, g *ShardedGrouped) (any, error) {
		return c2(g.QuantileOkContext(ctx, "v", 0.9))
	})},
}

// pinWindowOps is the window surface; sweeps run 200-row windows every 150.
var pinWindowOps = []struct {
	name string
	run  func(ctx context.Context, w *ShardedWindowQuery) (any, error)
}{
	{"Window.CountRows", func(ctx context.Context, w *ShardedWindowQuery) (any, error) { return c1(w.CountRowsContext(ctx)) }},
	{"Window.Sum(v)", func(ctx context.Context, w *ShardedWindowQuery) (any, error) { return c1(w.SumContext(ctx, "v")) }},
	{"Window.Min(v)", func(ctx context.Context, w *ShardedWindowQuery) (any, error) { return c2(w.MinContext(ctx, "v")) }},
	{"Window.Max(n)", func(ctx context.Context, w *ShardedWindowQuery) (any, error) { return c2(w.MaxContext(ctx, "n")) }},
	{"Window.Avg(v)", func(ctx context.Context, w *ShardedWindowQuery) (any, error) { return c2(w.AvgContext(ctx, "v")) }},
	{"Window.Avg(n)", func(ctx context.Context, w *ShardedWindowQuery) (any, error) { return c2(w.AvgContext(ctx, "n")) }},
}

// TestShardFanOutCounterPin: every public aggregate × {unranged, ranged} ×
// {no filter, a filter the catalog prunes on} × {one shard; 1, 3, 7 full
// shards plus a 77-row tail} × {VBP, HBP} does, shard for shard, the work
// recorded in the golden table — the full ExecStats, not only the shard
// counters, so a fan-out that picks a different per-shard executor (the
// range index instead of a scan, two-phase instead of fused) shows.
func TestShardFanOutCounterPin(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	b.WriteString(fanOutPinHeader)
	line := func(id string, v any, err error, rec *StatsCollector) {
		if err != nil {
			t.Errorf("%s: %v", id, err)
		}
		res := fmt.Sprint(v)
		if len(res) > 24 { // per-group and per-window slices: a digest pins them as well
			h := fnv.New32a()
			h.Write([]byte(res))
			res = fmt.Sprintf("#%08x", h.Sum32())
		}
		fmt.Fprintf(&b, "%s = %s |%s\n", id, res, pinStats(rec.Snapshot()))
	}
	for _, layout := range []Layout{VBP, HBP} {
		for _, full := range []int{0, 1, 3, 7} {
			flat := pinTable(layout, max(full, 1)*256+77)
			st, store := ShardTable(flat, 256), fmt.Sprintf("%dx256+77", full)
			if full == 0 {
				st, store = PartitionTable(flat), "one-shard"
			}
			rows := st.Rows()
			for _, filtered := range []bool{false, true} {
				query := func() (*ShardedQuery, *StatsCollector) {
					rec := NewStatsCollector()
					q := st.Query().With(Parallel(1)).WithStatsInto(rec)
					if filtered {
						// About the middle half of a: the outer shards prune.
						q.Where("a", GreaterEq(1000)).Where("a", Less(3100))
					}
					return q, rec
				}
				prefix := fmt.Sprintf("%v/%s/filtered=%v", layout, store, filtered)
				for _, op := range pinOps {
					q, rec := query()
					v, err := op.run(ctx, q)
					line(prefix+"/all/"+op.name, v, err, rec)
					q, rec = query()
					v, err = op.run(ctx, q.Range(100, rows-50))
					line(prefix+"/range/"+op.name, v, err, rec)
				}
				for _, op := range pinWindowOps {
					q, rec := query()
					v, err := op.run(ctx, q.Window(200, 150))
					line(prefix+"/"+op.name, v, err, rec)
				}
			}
		}
	}
	got := b.String()
	if *recordFanOutPin {
		if err := os.WriteFile(fanOutPinFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fanOutPinFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			if diffs++; diffs <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
	}
	t.Errorf("%d of %d lines differ from %s (%d lines)", diffs, len(gl), fanOutPinFile, len(wl))
}

// exportedMethods lists the exported method names of v's type.
func exportedMethods(v any) []string {
	rt := reflect.TypeOf(v)
	names := make([]string, rt.NumMethod())
	for i := range names {
		names[i] = rt.Method(i).Name
	}
	return names
}

// TestTwinMethodSets: a range view answers every aggregate its query
// does — the narrower twin's method set is the wider one's minus the
// listed names, each of which builds or configures a query rather than
// aggregating. (Selection is on both: the range's is its own mask ∧
// filter.)
func TestTwinMethodSets(t *testing.T) {
	for _, tc := range []struct {
		name         string
		wide, narrow any
		minus        []string
	}{
		{"ShardedRangeQuery vs ShardedQuery", &ShardedQuery{}, &ShardedRangeQuery{},
			[]string{"Where", "WhereErr", "With", "WithStats", "WithStatsInto", "Stats", "Fused", "Range", "Window"}},
	} {
		minus := map[string]bool{}
		for _, m := range tc.minus {
			minus[m] = true
		}
		var want []string
		for _, m := range exportedMethods(tc.wide) {
			if !minus[m] {
				want = append(want, m)
			}
		}
		got := exportedMethods(tc.narrow)
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: methods\n got  %v\n want %v", tc.name, got, want)
		}
	}
}

// TestOneAggregateDoor: an aggregate is reached through its ...Context
// method, which returns its failure as an error. No method X sits beside
// an XContext on the aggregating types, save the plain names the repo
// benchmark calls — each listed with the call that pins it.
func TestOneAggregateDoor(t *testing.T) {
	// Sum is one method of the fan-out both query types embed.
	const rangeSum = "benchmark/engine.go:64,66 and benchmark/trace.go:200,202 (Query().Range(...).Sum)"
	pinned := map[string]string{
		"*bpagg.ShardedQuery.Sum":      rangeSum,
		"*bpagg.ShardedRangeQuery.Sum": rangeSum,
		"*bpagg.Column.Count":          "benchmark/facade.go:149",
	}
	for _, v := range []any{&Column{}, &Query{}, &RangeQuery{}, &Grouped{}, &WindowQuery{}} {
		names := exportedMethods(v)
		for _, m := range names {
			if !slices.Contains(names, m+"Context") {
				continue
			}
			id := fmt.Sprintf("%v.%s", reflect.TypeOf(v), m)
			if pin, ok := pinned[id]; ok {
				t.Logf("%s stays beside %sContext: %s calls it", id, m, pin)
				continue
			}
			t.Errorf("%s sits beside %sContext: a second door to one aggregate", id, m)
		}
	}
}

// TestShardedGroupMedianBytes pins what a multi-shard per-group MEDIAN
// allocates. It is one radix descent over every shard's partition, whose
// working set is one copy of the candidate words plus per-group counters;
// it used to binary-search each group's value domain with a fresh group
// bitmap and a column scan per shard per step (21 951 770 bytes here).
// parentBytes is what the descent allocated when recorded (go1.24); the
// bound leaves 5% for another toolchain's slice growth, and the answers
// must equal one shard's.
func TestShardedGroupMedianBytes(t *testing.T) {
	const parentBytes = 195_725
	flat := pinTable(VBP, 4096)
	st := ShardTable(flat, 1024)
	ctx := context.Background()
	g, err := st.Query().Where("a", Less(4000)).GroupByContext(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	if g.Strategy() != GroupHash || len(g.parts) != 4 {
		t.Fatalf("fixture: strategy %v over %d live shards, want hash over 4", g.Strategy(), len(g.parts))
	}
	var got []uint64
	var oks []bool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 3
	testing.AllocsPerRun(runs-1, func() { // AllocsPerRun adds a warm-up run
		if got, oks, err = g.MedianOkContext(ctx, "n"); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("%d bytes per MedianOkContext over %d groups", bytes, g.Len())
	if bytes > parentBytes*21/20 {
		t.Errorf("MedianOkContext allocates %d bytes, want at most the %d recorded (+5%%)", bytes, parentBytes)
	}
	one, err := ShardTable(flat, flat.Rows()).Query().Where("a", Less(4000)).GroupByContext(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	want, wantOks, err := one.MedianOkContext(ctx, "n")
	if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(oks, wantOks) {
		t.Errorf("per-group medians over 4 shards differ from one shard's (err %v)", err)
	}
}

// TestShardedAggsMatchSingleCalls: AggsContext's row is, cell for cell,
// what the single-aggregate methods answer — on a sharded store and on a
// table's one-part store, over the whole store and a row range, with and
// without a filter the catalog prunes on, a NULL-bearing column included
// — and a malformed aggregate fails the call. A table's statement is one
// plan with one scan per clause, and a store's Selection and a group's
// are the table's bitmaps, with and without a row range.
func TestShardedAggsMatchSingleCalls(t *testing.T) {
	ctx := context.Background()
	flat := pinTable(HBP, 3*256+77)
	st := ShardTable(flat, 256)
	aggs := []GroupAgg{{Op: "COUNT"}, {Op: "COUNT", Column: "n"}, {Op: "SUM", Column: "v"}, {Op: "AVG", Column: "n"},
		{Op: "MIN", Column: "n"}, {Op: "MAX", Column: "v"}, {Op: "MEDIAN", Column: "n"}, {Op: "QUANTILE", Column: "v", Quantile: 0.9}}
	for _, store := range []*ShardedTable{st, PartitionTable(flat)} {
		for _, filtered := range []bool{false, true} {
			query := func() *Query {
				q := store.Query()
				if filtered {
					q.Where("a", GreaterEq(1000)).Where("a", Less(3100))
				}
				return q
			}
			for _, src := range []pinAggs{query(), query().Range(100, store.Rows()-50)} {
				var want []AggResult
				cell := func(r AggResult, err error) {
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, r)
				}
				count := func(v uint64, err error) { cell(AggResult{Value: v, OK: true}, err) }
				sum := func(s, c uint64, err error) { cell(AggResult{Value: s, Count: c, OK: true}, err) }
				value := func(v uint64, ok bool, err error) { cell(AggResult{Value: v, OK: ok}, err) }
				count(src.CountRowsContext(ctx))
				count(src.CountContext(ctx, "n"))
				sum(src.SumCountContext(ctx, "v"))
				sum(src.SumCountContext(ctx, "n"))
				value(src.MinContext(ctx, "n"))
				value(src.MaxContext(ctx, "v"))
				value(src.MedianContext(ctx, "n"))
				value(src.QuantileContext(ctx, "v", 0.9))
				got, err := src.(interface {
					AggsContext(context.Context, []GroupAgg) ([]AggResult, error)
				}).AggsContext(ctx, aggs)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%d parts, filtered=%v %T: AggsContext = %+v, %v; single calls %+v", store.NumShards(), filtered, src, got, err, want)
				}
			}
		}
	}

	q := flat.Query().WithStats().Where("a", GreaterEq(1000)).Where("a", Less(3100))
	if _, err := q.AggsContext(ctx, []GroupAgg{{Op: "SUM", Column: "v"}, {Op: "AVG", Column: "n"}, {Op: "COUNT"},
		{Op: "MIN", Column: "n"}, {Op: "MAX", Column: "v"}}); err != nil {
		t.Fatal(err)
	}
	if s := q.Stats(); s.ShardsScanned != 1 || s.ShardsPruned != 0 || s.Scans != 2 {
		t.Errorf("table statement: %d parts scanned, %d pruned, %d scans; want one plan of one part and a scan per clause", s.ShardsScanned, s.ShardsPruned, s.Scans)
	}

	three := ShardTable(flat, 300)
	if three.NumShards() != 3 {
		t.Fatalf("fixture: %d shards, want 3", three.NumShards())
	}
	same := func(what string, got, want *Bitmap) {
		if got.Len() != want.Len() || !slices.Equal(got.b.Words(), want.b.Words()) {
			t.Errorf("%s: %d of %d rows, the table's %d of %d", what, got.Count(), got.Len(), want.Count(), want.Len())
		}
	}
	// a ≥ 1500 prunes the first shard, whose rows must stay clear.
	filter := flat.Column("a").Scan(GreaterEq(1500)).And(flat.Column("v").Scan(Less(3000)))
	for _, rng := range [][2]int{{0, flat.Rows()}, {100, 700}} {
		ranged := rng[1] < flat.Rows()
		q := func() (*Query, *RangeQuery) {
			q := three.Query().Where("a", GreaterEq(1500)).Where("v", Less(3000))
			return q, q.Range(rng[0], rng[1])
		}
		want := filter.Clone().And(rangeBitmap(flat.Rows(), rng[0], rng[1]))
		whole, cut := q()
		got := whole.Selection()
		if ranged {
			got = cut.Selection()
		}
		same(fmt.Sprintf("Selection ranged=%v", ranged), got, want)
		whole, cut = q()
		g := must(whole.GroupByContext(bg, "g"))
		if ranged {
			g = must(cut.GroupByContext(bg, "g"))
		}
		for i, key := range g.Keys() {
			same(fmt.Sprintf("Grouped.Selection(%d) ranged=%v", i, ranged), g.Selection(i), want.Clone().And(flat.Column("g").Scan(Equal(key))))
		}
	}
	for _, bad := range []GroupAgg{{Op: "MODE", Column: "v"}, {Op: "SUM", Column: "nope"}, {Op: "QUANTILE", Column: "v", Quantile: 2}} {
		if _, err := st.Query().AggsContext(ctx, []GroupAgg{{Op: "COUNT"}, bad}); err == nil {
			t.Errorf("AggsContext(%+v) succeeded", bad)
		}
	}
}
