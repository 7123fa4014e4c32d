package sqlmini

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
)

func parseQ(t *testing.T, sql string) *Query {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q
}

func TestBatchKeyCanonical(t *testing.T) {
	cat := loadSales(t)

	key := func(sql string) (string, bool) {
		k, ok := BatchKey(cat, parseQ(t, sql))
		return k, ok
	}

	// Conjunct order and the SELECT list must not affect the key.
	a, okA := key("SELECT SUM(qty) WHERE region = 'EU' AND qty >= 5")
	b, okB := key("SELECT COUNT(*), AVG(price) WHERE qty >= 5 AND region = 'EU'")
	if !okA || !okB {
		t.Fatalf("eligible queries rejected: okA=%v okB=%v", okA, okB)
	}
	if a != b {
		t.Errorf("permuted conjuncts produced different keys: %q vs %q", a, b)
	}

	// Different predicates must not coalesce.
	c, okC := key("SELECT SUM(qty) WHERE region = 'EU' AND qty >= 6")
	if !okC {
		t.Fatal("eligible query rejected")
	}
	if c == a {
		t.Errorf("distinct predicates share key %q", c)
	}

	// Semantically identical literals coalesce via code-space binding:
	// price < 10.505 and price < 10.51 bind to the same ceil code at
	// scale 2.
	d, _ := key("SELECT COUNT(*) WHERE price < 10.505")
	e, _ := key("SELECT COUNT(*) WHERE price < 10.51")
	if d != e {
		t.Errorf("equivalent literals keyed differently: %q vs %q", d, e)
	}

	// Unfiltered ungrouped queries share the all-rows class.
	f, okF := key("SELECT COUNT(*)")
	g, okG := key("SELECT MAX(price)")
	if !okF || !okG || f != g {
		t.Errorf("unfiltered queries: (%q,%v) vs (%q,%v)", f, okF, g, okG)
	}

	// Ineligible shapes.
	for _, sql := range []string{
		"SELECT COUNT(*) GROUP BY region",
		"EXPLAIN ANALYZE SELECT COUNT(*)",
		"SELECT COUNT(*) WHERE region IN ('EU','US')",
	} {
		if k, ok := key(sql); ok {
			t.Errorf("%q unexpectedly batch-eligible (key %q)", sql, k)
		}
	}
	if _, ok := BatchKey(cat, nil); ok {
		t.Error("nil query unexpectedly batch-eligible")
	}
}

func TestExecuteSharedMatchesSolo(t *testing.T) {
	cat := loadSales(t)
	sqls := []string{
		"SELECT SUM(qty), COUNT(*) WHERE region = 'EU' AND qty >= 5",
		"SELECT COUNT(*), MIN(price) WHERE qty >= 5 AND region = 'EU'",
		"SELECT AVG(price), MEDIAN(qty), QUANTILE(qty, 0.9) WHERE region = 'EU' AND qty >= 5",
		"SELECT SUM(qty) WHERE region = 'EU' AND qty >= 5",
	}
	qs := make([]*Query, len(sqls))
	for i, sql := range sqls {
		qs[i] = parseQ(t, sql)
	}

	out := ExecuteShared(context.Background(), cat, qs, ExecOptions{})
	if len(out) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(out), len(qs))
	}
	for i, sr := range out {
		if sr.Err != nil {
			t.Fatalf("shared member %d: %v", i, sr.Err)
		}
		solo, err := ExecuteContext(context.Background(), cat, qs[i], ExecOptions{})
		if err != nil {
			t.Fatalf("solo member %d: %v", i, err)
		}
		if !reflect.DeepEqual(sr.Res, solo) {
			t.Errorf("member %d: shared %+v != solo %+v", i, sr.Res, solo)
		}
	}
}

func TestExecuteSharedErrorIsolation(t *testing.T) {
	cat := loadSales(t)
	qs := []*Query{
		parseQ(t, "SELECT COUNT(*) WHERE qty >= 5"),
		parseQ(t, "SELECT SUM(nope) WHERE qty >= 5"),   // unknown column
		parseQ(t, "SELECT SUM(region) WHERE qty >= 5"), // SUM over string
		parseQ(t, "SELECT MAX(price) WHERE qty >= 5"),
	}
	out := ExecuteShared(context.Background(), cat, qs, ExecOptions{})
	if out[0].Err != nil || out[3].Err != nil {
		t.Fatalf("healthy members failed: %v / %v", out[0].Err, out[3].Err)
	}
	for _, i := range []int{1, 2} {
		var bad *BadQueryError
		if out[i].Err == nil || !errors.As(out[i].Err, &bad) {
			t.Errorf("member %d: want *BadQueryError, got %v", i, out[i].Err)
		}
		if out[i].Res != nil {
			t.Errorf("member %d: result alongside error", i)
		}
	}
}

func TestExecuteSharedClassMismatch(t *testing.T) {
	cat := loadSales(t)
	qs := []*Query{
		parseQ(t, "SELECT COUNT(*) WHERE qty >= 5"),
		parseQ(t, "SELECT COUNT(*) WHERE qty >= 6"), // different class
	}
	out := ExecuteShared(context.Background(), cat, qs, ExecOptions{})
	if out[0].Err != nil {
		t.Fatalf("leader failed: %v", out[0].Err)
	}
	var bad *BadQueryError
	if out[1].Err == nil || !errors.As(out[1].Err, &bad) {
		t.Errorf("mis-grouped member: want *BadQueryError, got %v", out[1].Err)
	}

	// A batch whose leader is ineligible fails every member.
	out = ExecuteShared(context.Background(), cat, []*Query{
		parseQ(t, "SELECT COUNT(*) GROUP BY region"),
	}, ExecOptions{})
	if out[0].Err == nil || !errors.As(out[0].Err, &bad) {
		t.Errorf("ineligible leader: want *BadQueryError, got %v", out[0].Err)
	}
}

func TestExecuteSharedCanceled(t *testing.T) {
	cat := loadSales(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := []*Query{
		parseQ(t, "SELECT SUM(qty) WHERE qty >= 5"),
		parseQ(t, "SELECT SUM(qty) WHERE qty >= 5"),
	}
	out := ExecuteShared(ctx, cat, qs, ExecOptions{})
	for i, sr := range out {
		if sr.Err == nil || !errors.Is(sr.Err, context.Canceled) {
			t.Errorf("member %d: want context.Canceled, got %v", i, sr.Err)
		}
	}
}

// TestExecuteSharedAmortizes pins the point of the whole layer: N queries
// of one batch class cost one WHERE binding and one kernel invocation per
// distinct aggregate, so the shared collector must record strictly fewer
// scans and touched words than N solo executions.
func TestExecuteSharedAmortizes(t *testing.T) {
	flat, sharded := loadSalesSharded(t, 2)
	t.Run("flat", func(t *testing.T) { executeSharedAmortizes(t, flat) })
	t.Run("sharded", func(t *testing.T) { executeSharedAmortizes(t, sharded) })
}

func executeSharedAmortizes(t *testing.T, cat *catalog.Catalog) {
	const n = 8
	sql := "SELECT SUM(qty), COUNT(*) WHERE region = 'EU' AND qty >= 5"

	solo := bpagg.NewStatsCollector()
	for i := 0; i < n; i++ {
		if _, err := ExecuteContext(context.Background(), cat, parseQ(t, sql), ExecOptions{Stats: solo}); err != nil {
			t.Fatal(err)
		}
	}
	soloStats := solo.Snapshot()

	shared := bpagg.NewStatsCollector()
	qs := make([]*Query, n)
	for i := range qs {
		qs[i] = parseQ(t, sql)
	}
	for i, sr := range ExecuteShared(context.Background(), cat, qs, ExecOptions{Stats: shared}) {
		if sr.Err != nil {
			t.Fatalf("member %d: %v", i, sr.Err)
		}
	}
	sharedStats := shared.Snapshot()

	if sharedStats.Scans == 0 || soloStats.Scans == 0 {
		t.Fatalf("stats not recorded: shared=%+v solo=%+v", sharedStats, soloStats)
	}
	if sharedStats.Scans*uint64(n) != soloStats.Scans {
		t.Errorf("shared Scans = %d, solo total = %d; want exactly 1/%d",
			sharedStats.Scans, soloStats.Scans, n)
	}
	if sharedStats.WordsTouched*uint64(n) != soloStats.WordsTouched {
		t.Errorf("shared WordsTouched = %d, solo total = %d; want exactly 1/%d",
			sharedStats.WordsTouched, soloStats.WordsTouched, n)
	}
	if sharedStats.Aggregates*uint64(n) != soloStats.Aggregates {
		t.Errorf("shared Aggregates = %d, solo total = %d; want exactly 1/%d",
			sharedStats.Aggregates, soloStats.Aggregates, n)
	}
}
