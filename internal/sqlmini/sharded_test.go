package sqlmini

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
)

// loadSalesSharded builds the sales fixture twice: the flat catalog and a
// sharded twin at the given shard size.
func loadSalesSharded(t *testing.T, shardRows int) (flat, sharded *catalog.Catalog) {
	t.Helper()
	flat = loadSales(t)
	sharded = loadSales(t)
	sharded.Shard(shardRows)
	if sharded.Sharded == nil || sharded.Table != nil {
		t.Fatal("Shard did not convert the catalog")
	}
	return flat, sharded
}

// bigSalesCSV generates a larger fixture so shard pruning and grouped
// merges see multiple sealed shards.
func bigSalesCatalogs(t *testing.T, rows, shardRows int) (flat, sharded *catalog.Catalog) {
	t.Helper()
	specs, err := catalog.ParseSchema(salesSchema)
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"EU", "US", "APAC", "LATAM"}
	rng := rand.New(rand.NewSource(99))
	var b strings.Builder
	b.WriteString("price,qty,delta,region\n")
	for i := 0; i < rows; i++ {
		if rng.Intn(23) == 0 { // empty qty cell → NULL
			fmt.Fprintf(&b, "%d.%02d,,%d,%s\n", rng.Intn(900), rng.Intn(100), rng.Intn(101)-50, regions[rng.Intn(4)])
		} else {
			fmt.Fprintf(&b, "%d.%02d,%d,%d,%s\n", rng.Intn(900), rng.Intn(100), rng.Intn(64), rng.Intn(101)-50, regions[rng.Intn(4)])
		}
	}
	csv := b.String()
	flat, err = catalog.LoadCSV(strings.NewReader(csv), specs)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err = catalog.LoadCSV(strings.NewReader(csv), specs)
	if err != nil {
		t.Fatal(err)
	}
	sharded.Shard(shardRows)
	return flat, sharded
}

// shardedQueries is the differential battery: every SQL feature the
// sharded executor routes — plain aggregates, floor/ceil literal
// binding, strings, IN-lists, BETWEEN, GROUP BY with all aggregate
// kinds, NULL measures — must produce cell-identical results on the flat
// and sharded catalogs.
var shardedQueries = []string{
	"SELECT COUNT(*), SUM(qty), MIN(price), MAX(price), MEDIAN(qty), AVG(delta)",
	"SELECT COUNT(qty), QUANTILE(price, 0.9)",
	"SELECT COUNT(*), SUM(price) WHERE region = 'EU' AND qty >= 5",
	"SELECT COUNT(*) WHERE price < 10.505",
	"SELECT COUNT(*) WHERE price BETWEEN 10 AND 100",
	"SELECT SUM(qty) WHERE region IN ('EU', 'US')",
	"SELECT COUNT(*) WHERE region != 'EU'",
	"SELECT SUM(qty) WHERE delta > -1000",
	"SELECT COUNT(*) WHERE qty = 1000000",
	"SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty), AVG(price), MEDIAN(price) GROUP BY region",
	"SELECT COUNT(qty), QUANTILE(qty, 0.25) WHERE price > 50 GROUP BY region",
	"SELECT COUNT(*) WHERE region IN ('EU') GROUP BY region",
}

func resultsEqual(a, b *Result) bool {
	return reflect.DeepEqual(a.Headers, b.Headers) && reflect.DeepEqual(a.Rows, b.Rows)
}

func TestShardedExecMatchesFlat(t *testing.T) {
	type fixture struct {
		name          string
		flat, sharded *catalog.Catalog
	}
	small, smallSharded := loadSalesSharded(t, 2)
	bigFlat, bigSharded := bigSalesCatalogs(t, 500, 77)
	for _, fx := range []fixture{
		{"small/shard2", small, smallSharded},
		{"big/shard77", bigFlat, bigSharded},
	} {
		for _, sql := range shardedQueries {
			for _, threads := range []int{1, 8} {
				q, err := Parse(sql)
				if err != nil {
					t.Fatalf("parse %q: %v", sql, err)
				}
				o := ExecOptions{Threads: threads}
				want, err := Execute(fx.flat, q, o)
				if err != nil {
					t.Fatalf("%s flat %q: %v", fx.name, sql, err)
				}
				got, err := Execute(fx.sharded, q, o)
				if err != nil {
					t.Fatalf("%s sharded %q: %v", fx.name, sql, err)
				}
				if !resultsEqual(want, got) {
					t.Fatalf("%s threads=%d %q diverged:\nflat:    %v\nsharded: %v",
						fx.name, threads, sql, want.Rows, got.Rows)
				}
			}
		}
	}
}

func TestShardedExecErrors(t *testing.T) {
	_, sharded := loadSalesSharded(t, 2)
	for _, sql := range []string{
		"SELECT COUNT(nope)",
		"SELECT SUM(region)",
		"SELECT COUNT(*) WHERE nope = 1",
		"SELECT COUNT(*) WHERE price < 'EU'",
		"SELECT COUNT(*) GROUP BY nope",
	} {
		q, err := Parse(sql)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := Execute(sharded, q, ExecOptions{}); err == nil {
			t.Errorf("%q executed on sharded catalog without error", sql)
		}
	}
}

// Engine errors from sharded execution must keep their type: a deadline
// is not the client's fault, so it must surface as a context error, not
// *BadQueryError (the server maps the former to 504 and the latter to
// 400). Unknown grouping columns, by contrast, are the query's fault.
func TestShardedErrorClassification(t *testing.T) {
	_, sharded := bigSalesCatalogs(t, 2000, 77)
	q, err := Parse("SELECT MEDIAN(price) GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ExecuteContext(ctx, sharded, q, ExecOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sharded GROUP BY returned %v (%T), want context.Canceled", err, err)
	}
	var bad *BadQueryError
	if errors.As(err, &bad) {
		t.Fatalf("context error misclassified as BadQueryError: %v", err)
	}

	q, err = Parse("SELECT COUNT(*) GROUP BY nope")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(sharded, q, ExecOptions{})
	if !errors.As(err, &bad) {
		t.Fatalf("unknown GROUP BY column returned %v (%T), want *BadQueryError", err, err)
	}
}

// TestShardedBatchEligible: a partitioned store batches like any other —
// same class keys as the flat-built catalog, same answers as solo
// (TestExecuteSharedAmortizes checks the work on both).
func TestShardedBatchEligible(t *testing.T) {
	flat, sharded := bigSalesCatalogs(t, 500, 77)
	sqls := []string{
		"SELECT SUM(qty), COUNT(*) WHERE region = 'EU' AND delta >= 5",
		"SELECT MEDIAN(price), MIN(qty) WHERE delta >= 5 AND region = 'EU'",
	}
	qs := make([]*Query, len(sqls))
	for i, sql := range sqls {
		qs[i] = parseQ(t, sql)
		fk, fok := BatchKey(flat, qs[i])
		sk, sok := BatchKey(sharded, qs[i])
		if !fok || !sok || fk != sk {
			t.Fatalf("%q: batch keys flat (%q, %v), sharded (%q, %v)", sql, fk, fok, sk, sok)
		}
	}
	for i, sr := range ExecuteShared(context.Background(), sharded, qs, ExecOptions{}) {
		if sr.Err != nil {
			t.Fatalf("member %d: %v", i, sr.Err)
		}
		if want := run(t, sharded, sqls[i]); !resultsEqual(sr.Res, want) {
			t.Errorf("member %d: shared %v != solo %v", i, sr.Res.Rows, want.Rows)
		}
	}
}

func TestShardedExplainAnalyze(t *testing.T) {
	_, sharded := bigSalesCatalogs(t, 500, 77)
	q, err := Parse("EXPLAIN ANALYZE SELECT SUM(qty) WHERE qty >= 5")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExplainAnalyze(sharded, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan := strings.Join(ex.Lines(true), "\n")
	if !strings.Contains(plan, "scan+agg sum(qty) where qty >= 5 [two-phase]") {
		t.Fatalf("plan missing its stage:\n%s", plan)
	}
	if !strings.Contains(plan, "shards_scanned=") || !strings.Contains(plan, "shards_pruned=") {
		t.Fatalf("plan missing shard counters:\n%s", plan)
	}
	node := ex.Root.Children[0]
	if node.Stats.ShardsScanned == 0 {
		t.Fatalf("shard stage recorded no scanned shards: %+v", node.Stats)
	}

	// Grouped twin.
	q, err = Parse("EXPLAIN ANALYZE SELECT COUNT(*) GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	ex, err = ExplainAnalyze(sharded, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan = strings.Join(ex.Lines(true), "\n")
	if !strings.Contains(plan, "group+agg count(*) by region [direct tier]") || !strings.Contains(plan, "shards_scanned=") {
		t.Fatalf("grouped plan missing its stage:\n%s", plan)
	}
}

func TestShardedCatalogPersistRoundTrip(t *testing.T) {
	_, sharded := loadSalesSharded(t, 2)
	var buf bytes.Buffer
	if _, err := sharded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := catalog.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sharded == nil {
		t.Fatal("restored catalog is not sharded")
	}
	if got.Sharded.NumShards() != sharded.Sharded.NumShards() {
		t.Fatalf("shards %d != %d", got.Sharded.NumShards(), sharded.Sharded.NumShards())
	}
	for _, sql := range shardedQueries {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(sharded, q, ExecOptions{})
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		res, err := Execute(got, q, ExecOptions{})
		if err != nil {
			t.Fatalf("%q on restored catalog: %v", sql, err)
		}
		if !resultsEqual(want, res) {
			t.Fatalf("%q diverged after persist round-trip", sql)
		}
	}
	// bpagg.In with sharded stores backs the IN-list path; make sure stats
	// flow end to end as well.
	q, _ := Parse("SELECT COUNT(*) WHERE region IN ('EU', 'US')")
	rec := bpagg.NewStatsCollector()
	if _, err := Execute(got, q, ExecOptions{Stats: rec}); err != nil {
		t.Fatal(err)
	}
	if s := rec.Snapshot(); s.ShardsScanned == 0 && s.ShardsPruned == 0 {
		t.Fatalf("sharded execution recorded no shard counters: %+v", s)
	}
}

// TestShardedStatementOnePlan: a scalar statement is one plan however many
// aggregates it names, so the catalog's verdict is booked once and
// ShardsScanned + ShardsPruned is the store's shard count — for four
// aggregates over a filter the catalog prunes on, and for two under a row
// range. A shared batch is one statement too, and a member naming an
// overflowing SUM fails alone while the others answer.
func TestShardedStatementOnePlan(t *testing.T) {
	cat := loadOrders(t)
	cat.Shard(64)
	shards := uint64(cat.Store().NumShards())
	for _, sql := range []string{
		"SELECT SUM(qty), COUNT(*), MIN(amount), MEDIAN(qty) WHERE amount >= 700",
		"SELECT SUM(qty), MAX(amount) WHERE rownum BETWEEN 10 AND 200 AND amount >= 300",
	} {
		rec := bpagg.NewStatsCollector()
		if _, err := ExecuteContext(context.Background(), cat, parseQ(t, sql), ExecOptions{Stats: rec}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st := rec.Snapshot()
		if st.ShardsPruned == 0 || st.ShardsScanned+st.ShardsPruned != shards {
			t.Errorf("%s: shards_scanned=%d shards_pruned=%d, want one plan of %d shards with some pruned",
				sql, st.ShardsScanned, st.ShardsPruned, shards)
		}
	}

	specs, err := catalog.ParseSchema("big:uint(63), k:uint(4)")
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("big,k\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", uint64(1)<<62, i)
	}
	big, err := catalog.LoadCSV(strings.NewReader(csv.String()), specs)
	if err != nil {
		t.Fatal(err)
	}
	big.Shard(2)
	out := ExecuteShared(context.Background(), big, []*Query{
		parseQ(t, "SELECT SUM(big) WHERE k < 8"),
		parseQ(t, "SELECT COUNT(*), MAX(big), AVG(k) WHERE k < 8"),
		parseQ(t, "SELECT MIN(k), AVG(big) WHERE k < 8"),
	}, ExecOptions{})
	var ov *bpagg.OverflowError
	for _, i := range []int{0, 2} {
		if !errors.As(out[i].Err, &ov) || ov.Hi != 1 || ov.Lo != 1<<63 || out[i].Res != nil {
			t.Errorf("member %d: %+v, want *OverflowError with the exact total 6·2^62", i, out[i])
		}
	}
	want := [][]string{{"6", fmt.Sprint(uint64(1) << 62), "2.5000"}}
	if out[1].Err != nil || !reflect.DeepEqual(out[1].Res.Rows, want) {
		t.Errorf("member 1: %+v, want rows %v", out[1], want)
	}
}
