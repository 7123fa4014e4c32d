package sqlmini

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bpagg"
)

func TestRownumBasic(t *testing.T) {
	cat := loadSales(t)
	// Rows 1..3: (99.99,24,0,US), (0.01,1,10,EU), (500.00,50,-50,APAC).
	res := run(t, cat, "SELECT COUNT(*), SUM(qty), MIN(price), MAX(price), AVG(delta) WHERE rownum BETWEEN 1 AND 3")
	want := []string{"3", "75", "0.01", "500.00", "-13.3333"}
	if !reflect.DeepEqual(res.Rows[0], want) {
		t.Errorf("rownum 1..3 row = %v, want %v", res.Rows[0], want)
	}

	// Range past the table clips; an inverted range selects nothing.
	res = run(t, cat, "SELECT COUNT(*), MIN(qty) WHERE rownum BETWEEN 4 AND 99")
	if !reflect.DeepEqual(res.Rows[0], []string{"2", "3"}) {
		t.Errorf("clipped range row = %v", res.Rows[0])
	}
	res = run(t, cat, "SELECT COUNT(*), MIN(qty), AVG(qty) WHERE rownum BETWEEN 4 AND 2")
	if !reflect.DeepEqual(res.Rows[0], []string{"0", "NULL", "NULL"}) {
		t.Errorf("empty range row = %v", res.Rows[0])
	}

	// Fractional bounds tighten inward: 0.5..2.5 means rows 1..2.
	res = run(t, cat, "SELECT COUNT(*), SUM(qty) WHERE rownum BETWEEN 0.5 AND 2.5")
	if !reflect.DeepEqual(res.Rows[0], []string{"2", "25"}) {
		t.Errorf("fractional bounds row = %v", res.Rows[0])
	}

	// Two rownum conjuncts intersect.
	res = run(t, cat, "SELECT COUNT(*) WHERE rownum BETWEEN 1 AND 4 AND rownum BETWEEN 3 AND 5")
	if res.Rows[0][0] != "2" {
		t.Errorf("intersected ranges count = %q", res.Rows[0][0])
	}
}

// TestRownumMatchesScan cross-checks the index-served route against the
// same aggregates computed over an equality-free value predicate that
// selects exactly the same rows (amount = 3·rownum on the orders
// fixture), so the two routes must agree cell for cell.
func TestRownumMatchesScan(t *testing.T) {
	cat := loadOrders(t)
	ranges := [][2]int{{0, 299}, {0, 0}, {63, 64}, {64, 191}, {1, 298}, {250, 400}}
	for _, r := range ranges {
		posSQL := fmt.Sprintf(
			"SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount), MEDIAN(amount) WHERE rownum BETWEEN %d AND %d",
			r[0], r[1])
		valSQL := fmt.Sprintf(
			"SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount), MEDIAN(amount) WHERE amount BETWEEN %d AND %d",
			r[0]*3, r[1]*3)
		got := run(t, cat, posSQL)
		want := run(t, cat, valSQL)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("range [%d,%d]: rownum route = %v, value route = %v", r[0], r[1], got.Rows, want.Rows)
		}
	}
}

// TestRownumWithPredicates exercises the masked fallback: rownum combined
// with ordinary conjuncts, grouped and ungrouped.
func TestRownumWithPredicates(t *testing.T) {
	cat := loadSales(t)
	// Rows 0..3 with region EU: rows 0 (qty 5) and 2 (qty 1).
	res := run(t, cat, "SELECT COUNT(*), SUM(qty) WHERE rownum BETWEEN 0 AND 3 AND region = 'EU'")
	if !reflect.DeepEqual(res.Rows[0], []string{"2", "6"}) {
		t.Errorf("masked row = %v", res.Rows[0])
	}

	res = run(t, cat, "SELECT COUNT(*), SUM(qty) WHERE rownum BETWEEN 0 AND 2 GROUP BY region")
	got := map[string][]string{}
	for _, row := range res.Rows {
		got[row[0]] = row[1:]
	}
	want := map[string][]string{"EU": {"2", "6"}, "US": {"1", "24"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grouped rownum rows = %v, want %v", got, want)
	}
}

func TestRownumErrors(t *testing.T) {
	cat := loadSales(t)
	for _, sql := range []string{
		"SELECT COUNT(*) WHERE rownum = 5",
		"SELECT COUNT(*) WHERE rownum >= 2",
		"SELECT COUNT(*) WHERE rownum IN (1, 2)",
		"SELECT COUNT(*) WHERE rownum BETWEEN 'a' AND 'b'",
	} {
		q, err := Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		_, err = Execute(cat, q, ExecOptions{})
		var bad *BadQueryError
		if !errors.As(err, &bad) {
			t.Errorf("%q: err = %v, want *BadQueryError", sql, err)
		}
	}
}

// TestRownumShardedMatchesFlat is the differential check: the same rownum
// queries against the flat catalog and its sharded twin must agree cell
// for cell — including NULL-bearing qty, whose COUNT/AVG divisors are the
// non-NULL counts on both routes.
func TestRownumShardedMatchesFlat(t *testing.T) {
	flat, sharded := bigSalesCatalogs(t, 1000, 128)
	queries := []string{
		"SELECT COUNT(*), COUNT(qty), SUM(qty), AVG(qty), MIN(qty), MAX(qty), MEDIAN(qty) WHERE rownum BETWEEN 100 AND 899",
		"SELECT SUM(price), AVG(delta), MIN(delta), MAX(price) WHERE rownum BETWEEN 127 AND 128",
		"SELECT COUNT(*), SUM(qty) WHERE rownum BETWEEN 0 AND 5000",
		"SELECT COUNT(*), MEDIAN(price) WHERE rownum BETWEEN 950 AND 20",
		"SELECT COUNT(*), SUM(price) WHERE rownum BETWEEN 200 AND 700 AND region = 'EU'",
		"SELECT COUNT(qty), AVG(qty) WHERE rownum BETWEEN 300 AND 650 AND delta >= 0",
	}
	for _, sql := range queries {
		fr := run(t, flat, sql)
		sr := run(t, sharded, sql)
		if !reflect.DeepEqual(fr.Rows, sr.Rows) {
			t.Errorf("%q:\n  flat    = %v\n  sharded = %v", sql, fr.Rows, sr.Rows)
		}
	}
}

// TestRownumShardedGroupBy: GROUP BY under a row range answers the same
// on a partitioned store as on the flat table — a range inside one
// shard, straddling shard boundaries, covering everything, and empty —
// and shards outside the range are pruned, not scanned.
func TestRownumShardedGroupBy(t *testing.T) {
	flat, sharded := bigSalesCatalogs(t, 1000, 128)
	for _, rng := range [][2]int{{10, 100}, {100, 300}, {127, 128}, {0, 5000}, {500, 20}} {
		sql := fmt.Sprintf("SELECT COUNT(*), COUNT(qty), SUM(price), MIN(qty), MEDIAN(delta) WHERE rownum BETWEEN %d AND %d AND delta >= -40 GROUP BY region",
			rng[0], rng[1])
		want, got := run(t, flat, sql), run(t, sharded, sql)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q:\n  flat    = %v\n  sharded = %v", sql, want.Rows, got.Rows)
		}
		if empty := rng[1] < rng[0]; empty != (got.Rows == nil) {
			t.Errorf("%q: rows = %#v, want nil exactly for the empty range", sql, got.Rows)
		}
	}

	// Rows 100..300 touch shards 0, 1 and 2 of 8: the grouping fan-out
	// and every per-group aggregate stay inside them.
	q, err := Parse("SELECT COUNT(*) WHERE rownum BETWEEN 100 AND 300 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	rec := bpagg.NewStatsCollector()
	if _, err := Execute(sharded, q, ExecOptions{Stats: rec}); err != nil {
		t.Fatal(err)
	}
	if s := rec.Snapshot(); s.ShardsScanned != 3 || s.ShardsPruned != 5 {
		t.Errorf("shards scanned/pruned = %d/%d, want 3/5", s.ShardsScanned, s.ShardsPruned)
	}
}

// TestRownumNotBatchEligible pins the serving-layer gate: a
// rownum-restricted query must never join a shared-scan batch, whose
// selection ignores row position.
func TestRownumNotBatchEligible(t *testing.T) {
	cat := loadSales(t)
	q, err := Parse("SELECT COUNT(*) WHERE rownum BETWEEN 0 AND 3")
	if err != nil {
		t.Fatal(err)
	}
	if key, ok := BatchKey(cat, q); ok {
		t.Errorf("rownum query got batch key %q, want ineligible", key)
	}
}

// TestRownumExplainStages checks the plan shapes: a rownum statement is
// the one range stage on every store — index-served when nothing else
// filters, carrying the residual predicate and its scan otherwise — and a
// partitioned store prunes the shards outside the range.
func TestRownumExplainStages(t *testing.T) {
	cat := loadOrders(t)
	lines := strings.Join(explainLines(t, cat, "EXPLAIN ANALYZE SELECT SUM(amount) WHERE rownum BETWEEN 64 AND 191"), "\n")
	if !strings.Contains(lines, "range sum(amount) rows [64, 192)") {
		t.Errorf("index-served plan missing range stage:\n%s", lines)
	}
	if !strings.Contains(lines, "scans=0") || !strings.Contains(lines, "index_segments=2, fringe_words=0") {
		t.Errorf("aligned range should be fully index-served:\n%s", lines)
	}

	lines = strings.Join(explainLines(t, cat, "EXPLAIN ANALYZE SELECT SUM(amount) WHERE rownum BETWEEN 10 AND 250 AND region = 'EU'"), "\n")
	if !strings.Contains(lines, "range sum(amount) rows [10, 251) where region = 'EU'") || !strings.Contains(lines, "scans=1") {
		t.Errorf("masked plan missing the range stage with its predicate scan:\n%s", lines)
	}

	_, sharded := bigSalesCatalogs(t, 1000, 128)
	lines = strings.Join(explainLines(t, sharded, "EXPLAIN ANALYZE SELECT SUM(qty) WHERE rownum BETWEEN 300 AND 500"), "\n")
	if !strings.Contains(lines, "range sum(qty) rows [300, 501)") || !strings.Contains(lines, "shards_scanned=2, shards_pruned=6") {
		t.Errorf("sharded plan missing the range stage or its pruning (6 of 8 shards lie outside):\n%s", lines)
	}
}
