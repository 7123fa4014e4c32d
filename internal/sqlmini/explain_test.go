package sqlmini

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
)

// -update rewrites the golden plans under testdata/explain/ from the
// current output. Timings are normalized to "<dur>" so goldens only pin
// the deterministic counters.
var update = flag.Bool("update", false, "rewrite EXPLAIN ANALYZE golden files")

// loadOrders builds a deterministic 300-row catalog large enough for the
// plans to span several 64-tuple segments, with amount ascending so
// range scans get real zone-map pruning.
func loadOrders(t *testing.T) *catalog.Catalog {
	t.Helper()
	const schema = "amount:uint(10):vbp, qty:uint(6):hbp, region:string"
	var b strings.Builder
	b.WriteString("amount,qty,region\n")
	regions := []string{"EU", "US", "APAC"}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%d,%d,%s\n", i*3, (i*7)%60, regions[i%3])
	}
	specs, err := catalog.ParseSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.LoadCSV(strings.NewReader(b.String()), specs)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func explainLines(t *testing.T, cat *catalog.Catalog, sql string) []string {
	return explainLinesOpts(t, cat, sql, ExecOptions{})
}

func explainLinesOpts(t *testing.T, cat *catalog.Catalog, sql string, o ExecOptions) []string {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	if !q.Explain {
		t.Fatalf("query %q did not parse as EXPLAIN ANALYZE", sql)
	}
	ex, err := ExplainAnalyze(cat, q, o)
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	return ex.Lines(true)
}

// goldenCases are the pinned plans. The first eight run on the flat-built
// orders fixture and predate the fold of the flat SQL routes into the
// one-shard store: sums holds, per case, the total over every node of the
// old plan tree (scan, range mask, combine, group, aggregate and the
// fused, single-pass and prefix-index stages) of {aggs, scans,
// pruned_none, pruned_all, words_compared, words_touched, radix_rounds,
// cache_served, index_segments, fringe_words}, which the one stage of the
// new plan must report unchanged (group_by_wide's were read off the
// commit before the GROUP BY tiers became one pipeline). group_by_median
// came later and has no old tree: it pins that a grouped rank is one radix
// descent per aggregate (radix_rounds 10 + 1 for the VBP and the HBP
// measure, whatever the group count). The last four run on sharded
// fixtures.
var goldenCases = []struct {
	name    string
	sql     string
	sharded bool
	sums    [10]uint64
}{
	{"sum_filtered", "EXPLAIN ANALYZE SELECT SUM(amount), COUNT(*) WHERE amount < 150", false,
		[10]uint64{2, 2, 8, 0, 20, 10, 0, 0, 0, 0}},
	{"median_two_preds", "EXPLAIN ANALYZE SELECT MEDIAN(qty) WHERE region = 'EU' AND amount BETWEEN 90 AND 600", false,
		[10]uint64{1, 3, 1, 7, 30, 25, 1, 0, 0, 0}},
	{"group_by", "EXPLAIN ANALYZE SELECT SUM(qty), MAX(amount) GROUP BY region", false,
		[10]uint64{5, 1, 0, 0, 10, 155, 0, 0, 0, 0}},
	{"no_predicates", "EXPLAIN ANALYZE SELECT COUNT(*), MIN(amount)", false,
		[10]uint64{1, 0, 0, 0, 0, 50, 0, 0, 0, 0}},
	{"in_list", "EXPLAIN ANALYZE SELECT SUM(amount) WHERE region IN ('EU', 'US') AND qty != 0", false,
		[10]uint64{1, 3, 0, 1, 48, 50, 0, 0, 0, 0}},
	{"rownum_range", "EXPLAIN ANALYZE SELECT SUM(amount), COUNT(*) WHERE rownum BETWEEN 64 AND 191", false,
		[10]uint64{3, 0, 0, 0, 0, 0, 0, 0, 2, 0}},
	{"rownum_masked", "EXPLAIN ANALYZE SELECT SUM(amount) WHERE rownum BETWEEN 10 AND 250 AND region = 'EU'", false,
		[10]uint64{1, 1, 0, 0, 10, 40, 0, 0, 0, 0}},
	// region, qty pack into 8 bits: a composite key, the direct index.
	{"group_by_hash", "EXPLAIN ANALYZE SELECT SUM(amount), COUNT(*) GROUP BY region, qty", false,
		[10]uint64{61, 1, 0, 0, 115, 50, 0, 0, 0, 0}},
	{"group_by_wide", wideCompositeSQL, false,
		[10]uint64{301, 1, 0, 0, 2567, 50, 0, 0, 0, 0}},
	{name: "group_by_median", sql: "EXPLAIN ANALYZE SELECT MEDIAN(amount), MEDIAN(qty) GROUP BY region"},
	{name: "sharded_pruned_range", sql: "EXPLAIN ANALYZE SELECT SUM(qty), COUNT(*) WHERE amount >= 700", sharded: true},
	{name: "sharded_in_list", sql: "EXPLAIN ANALYZE SELECT SUM(amount), MIN(qty) WHERE region IN ('EU', 'US') AND qty != 0", sharded: true},
	{name: "sharded_rownum_group_by", sql: "EXPLAIN ANALYZE SELECT COUNT(*), SUM(amount) WHERE rownum BETWEEN 60 AND 139 GROUP BY region", sharded: true},
	// amount ≤ 897: the catalog prunes every shard, and the tier is still
	// the one the key width selects.
	{name: "sharded_pruned_group_by", sql: "EXPLAIN ANALYZE SELECT COUNT(*), SUM(qty) WHERE amount > 1000 GROUP BY region", sharded: true},
}

// wideCompositeSQL groups by a key that packs past core.DirectKeyBits, so
// its plan carries the hashed index's probe counters.
const wideCompositeSQL = "EXPLAIN ANALYZE SELECT SUM(amount), COUNT(*) GROUP BY region, qty, amount"

// TestExplainGolden pins every plan's text. Threads is 1 because a hashed
// key index's HashProbes depends on per-worker key arrival order
// (DESIGN.md §12); every other counter is thread-invariant
// (TestExplainStatsThreadInvariant).
func TestExplainGolden(t *testing.T) {
	flat, sharded := loadOrders(t), loadOrders(t)
	sharded.Shard(64)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cat := flat
			if tc.sharded {
				cat = sharded
			}
			got := strings.Join(explainLinesOpts(t, cat, tc.sql, ExecOptions{Threads: 1}), "\n") + "\n"
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan mismatch for %q\n--- got ---\n%s--- want ---\n%s", tc.sql, got, want)
			}
		})
	}
}

// TestExplainGoldenSums: the one stage of a flat-built plan reports
// exactly what the nodes of the old plan tree summed to — the fold moved
// no work and lost no counter.
func TestExplainGoldenSums(t *testing.T) {
	cat := loadOrders(t)
	for _, tc := range goldenCases {
		if tc.sharded || tc.sums == [10]uint64{} {
			continue
		}
		q, err := Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExplainAnalyze(cat, q, ExecOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := ex.Root.Children[0].Stats
		got := [10]uint64{s.Aggregates, s.Scans, s.SegmentsPrunedNone, s.SegmentsPrunedAll, s.WordsCompared,
			s.WordsTouched, s.RadixRounds, s.SegmentsCacheServed, s.SegmentsIndexServed, s.RangeFringeWords}
		if got != tc.sums {
			t.Errorf("%s: stage counters %v, old tree summed to %v", tc.name, got, tc.sums)
		}
	}
}

// TestExplainGoldenHashTier: a composite GROUP BY whose packed key is
// wider than the direct index reports the hash tier plus its probe/growth
// counters (the text is pinned by TestExplainGolden).
func TestExplainGoldenHashTier(t *testing.T) {
	cat := loadOrders(t)
	got := strings.Join(explainLinesOpts(t, cat, wideCompositeSQL, ExecOptions{Threads: 1}), "\n")
	if !strings.Contains(got, "[hash tier]") || !strings.Contains(got, "hash_probes=") {
		t.Errorf("hash-tier plan does not report the tier and probe counters:\n%s", got)
	}
}

// TestExplainExecuteRouting checks the EXPLAIN path through the normal
// Execute entry point: one "QUERY PLAN" column, one row per plan line,
// always the query root over the one stage that ran. A fusible query is
// tagged [fused]; an IN-list cannot fuse and is tagged [two-phase].
func TestExplainExecuteRouting(t *testing.T) {
	cat := loadOrders(t)
	res := run(t, cat, "EXPLAIN ANALYZE SELECT COUNT(*) WHERE amount > 100")
	if len(res.Headers) != 1 || res.Headers[0] != "QUERY PLAN" {
		t.Fatalf("headers = %v", res.Headers)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("plan rows = %d, want query + stage:\n%s", len(res.Rows), planText(res))
	}
	if !strings.HasPrefix(res.Rows[0][0], "query ") {
		t.Errorf("first line = %q, want query root", res.Rows[0][0])
	}
	if !strings.Contains(res.Rows[1][0], "scan+agg count(*) where amount > 100 [fused]") {
		t.Errorf("second line = %q, want fused scan+agg stage for the predicate", res.Rows[1][0])
	}

	res = run(t, cat, "EXPLAIN ANALYZE SELECT COUNT(*) WHERE amount IN (30, 60)")
	if len(res.Rows) != 2 {
		t.Fatalf("plan rows = %d, want query + stage:\n%s", len(res.Rows), planText(res))
	}
	if !strings.Contains(res.Rows[1][0], "scan+agg count(*) where amount IN (30, 60) [two-phase]") ||
		!strings.Contains(res.Rows[1][0], "scans=2") {
		t.Errorf("second line = %q, want two-phase scan+agg with one scan per IN member", res.Rows[1][0])
	}
}

// TestExplainFeedsSessionCollector: EXPLAIN ANALYZE executes the query,
// so a caller-supplied collector must accumulate its work — the CLI's
// -stats totals would otherwise read zero for explained queries.
func TestExplainFeedsSessionCollector(t *testing.T) {
	cat := loadOrders(t)
	q, err := Parse("EXPLAIN ANALYZE SELECT MEDIAN(qty) WHERE amount > 100")
	if err != nil {
		t.Fatal(err)
	}
	rec := bpagg.NewStatsCollector()
	ex, err := ExplainAnalyze(cat, q, ExecOptions{Stats: rec})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	if s.Scans == 0 || s.Aggregates == 0 || s.WordsTouched == 0 {
		t.Fatalf("session collector not fed by explain: %+v", s)
	}
	if stage := ex.Root.Children[0].Stats; s != stage {
		t.Errorf("session collector %+v, stage reports %+v", s, stage)
	}
}

func planText(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0])
		b.WriteString("\n")
	}
	return b.String()
}

// TestExplainPlainRejected pins the parser contract: EXPLAIN without
// ANALYZE is an error, not a silent execution.
func TestExplainPlainRejected(t *testing.T) {
	if _, err := Parse("EXPLAIN SELECT COUNT(*)"); err == nil {
		t.Fatal("plain EXPLAIN parsed; want error")
	} else if !strings.Contains(err.Error(), "ANALYZE") {
		t.Fatalf("error %q does not mention ANALYZE", err)
	}
}

// TestExplainCrossCheckMedian: the numbers EXPLAIN ANALYZE prints for a
// filtered MEDIAN query must be the same ones the public ExecStats API
// reports when the caller runs the scans and the aggregate by hand.
func TestExplainCrossCheckMedian(t *testing.T) {
	cat := loadOrders(t)
	const sql = "EXPLAIN ANALYZE SELECT MEDIAN(qty) WHERE amount BETWEEN 90 AND 600"
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExplainAnalyzeContext(context.Background(), cat, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root := ex.Root
	if root.Op != "query" || len(root.Children) != 1 {
		t.Fatalf("bad root: %+v", root)
	}
	stage := root.Children[0]
	if stage.Op != "scan+agg" || len(stage.Children) != 0 || !strings.HasSuffix(stage.Detail, "[two-phase]") {
		t.Fatalf("bad stage: %+v", stage)
	}

	// Re-run the stage by hand through the public API: the two scans of
	// the BETWEEN, then MEDIAN over their intersection (qty is HBP and
	// amount VBP, so the window widths differ and the engine cannot fuse).
	rec := bpagg.NewStatsCollector()
	col := cat.Table.Column("amount")
	sel := col.ScanStats(bpagg.GreaterEq(90), rec).And(col.ScanStats(bpagg.LessEq(600), rec))
	wantMed, ok, err := cat.Table.Column("qty").MedianContext(context.Background(), sel, bpagg.CollectStats(rec))
	if err != nil || !ok {
		t.Fatalf("manual median: ok=%v err=%v", ok, err)
	}
	manual, plan := rec.Snapshot(), stage.Stats
	for _, c := range []struct {
		name         string
		plan, manual uint64
	}{
		{"Scans", plan.Scans, manual.Scans},
		{"SegmentsScanned", plan.SegmentsScanned, manual.SegmentsScanned},
		{"SegmentsPrunedAll", plan.SegmentsPrunedAll, manual.SegmentsPrunedAll},
		{"SegmentsPrunedNone", plan.SegmentsPrunedNone, manual.SegmentsPrunedNone},
		{"WordsCompared", plan.WordsCompared, manual.WordsCompared},
		{"Aggregates", plan.Aggregates, manual.Aggregates},
		{"SegmentsAggregated", plan.SegmentsAggregated, manual.SegmentsAggregated},
		{"WordsTouched", plan.WordsTouched, manual.WordsTouched},
		{"RadixRounds", plan.RadixRounds, manual.RadixRounds},
	} {
		if c.plan != c.manual {
			t.Errorf("%s: plan %d, manual %d", c.name, c.plan, c.manual)
		}
	}
	if manual.RadixRounds == 0 {
		t.Error("MEDIAN recorded zero radix rounds")
	}
	if uint64(sel.Count()) != stage.Rows {
		t.Errorf("stage rows: plan %d, manual %d", stage.Rows, sel.Count())
	}

	// And the plan's answer must match the plain query result.
	res := run(t, cat, "SELECT MEDIAN(qty) WHERE amount BETWEEN 90 AND 600")
	if want := cat.FormatValue("qty", wantMed); res.Rows[0][0] != want {
		t.Errorf("median: query %q, manual %q", res.Rows[0][0], want)
	}
}

// TestExplainStatsThreadInvariant: the work counters in a plan are defined
// analytically, so the same plan run with 8 threads must report the same
// segments/words/rounds (only timings may differ).
func TestExplainStatsThreadInvariant(t *testing.T) {
	cat := loadOrders(t)
	const sql = "EXPLAIN ANALYZE SELECT SUM(amount), MEDIAN(qty) WHERE amount > 120"
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex1, err := ExplainAnalyze(cat, q, ExecOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex8, err := ExplainAnalyze(cat, q, ExecOptions{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	l1, l8 := ex1.Lines(true), ex8.Lines(true)
	if len(l1) != len(l8) {
		t.Fatalf("plan shapes differ: %d vs %d lines", len(l1), len(l8))
	}
	for i := range l1 {
		if l1[i] != l8[i] {
			t.Errorf("line %d differs:\n  threads=1: %s\n  threads=8: %s", i, l1[i], l8[i])
		}
	}
}
