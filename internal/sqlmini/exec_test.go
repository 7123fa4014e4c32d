package sqlmini

import (
	"errors"
	"strings"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
)

const salesSchema = "price:decimal(2,1000):vbp, qty:uint(6):hbp, delta:int(-50,50), region:string"

const salesCSV = `price,qty,delta,region
10.50,5,-20,EU
99.99,24,0,US
0.01,1,10,EU
500.00,50,-50,APAC
25.25,3,50,US
10.50,10,5,EU
`

func loadSales(t *testing.T) *catalog.Catalog {
	t.Helper()
	specs, err := catalog.ParseSchema(salesSchema)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.LoadCSV(strings.NewReader(salesCSV), specs)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func run(t *testing.T, cat *catalog.Catalog, sql string) *Result {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := Execute(cat, q, ExecOptions{})
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	return res
}

func TestExecuteUngrouped(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT COUNT(*), SUM(qty), MIN(price), MAX(price), MEDIAN(qty), AVG(delta)")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	// qty: 5+24+1+50+3+10 = 93; price min 0.01 max 500.00;
	// qty sorted {1,3,5,10,24,50} lower median = 5;
	// delta: -20+0+10-50+50+5 = -5, avg -0.8333.
	want := []string{"6", "93", "0.01", "500.00", "5", "-0.8333"}
	for i, w := range want {
		if row[i] != w {
			t.Errorf("col %d (%s) = %q, want %q", i, res.Headers[i], row[i], w)
		}
	}
}

func TestExecuteWhere(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT COUNT(*), SUM(price) WHERE region = 'EU' AND qty >= 5")
	// EU rows with qty>=5: (10.50,5) and (10.50,10) -> count 2, sum 21.00.
	if res.Rows[0][0] != "2" || res.Rows[0][1] != "21.00" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestExecuteFractionalLiteralSemantics(t *testing.T) {
	cat := loadSales(t)
	// 10.505 is not representable at scale 2: price < 10.505 must include
	// both 10.50 rows and 0.01, excluding 25.25.
	res := run(t, cat, "SELECT COUNT(*) WHERE price < 10.505")
	if res.Rows[0][0] != "3" {
		t.Errorf("price < 10.505 count = %q", res.Rows[0][0])
	}
	res = run(t, cat, "SELECT COUNT(*) WHERE price <= 10.50")
	if res.Rows[0][0] != "3" {
		t.Errorf("price <= 10.50 count = %q", res.Rows[0][0])
	}
	res = run(t, cat, "SELECT COUNT(*) WHERE price > 10.505")
	if res.Rows[0][0] != "3" {
		t.Errorf("price > 10.505 count = %q", res.Rows[0][0])
	}
	// Equality with an unrepresentable literal matches nothing.
	res = run(t, cat, "SELECT COUNT(*) WHERE price = 10.505")
	if res.Rows[0][0] != "0" {
		t.Errorf("price = 10.505 count = %q", res.Rows[0][0])
	}
	// ... and != matches every non-NULL row.
	res = run(t, cat, "SELECT COUNT(*) WHERE price != 10.505")
	if res.Rows[0][0] != "6" {
		t.Errorf("price != 10.505 count = %q", res.Rows[0][0])
	}
}

func TestExecuteOutOfDomainLiterals(t *testing.T) {
	cat := loadSales(t)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT COUNT(*) WHERE price < 99999", "6"},
		{"SELECT COUNT(*) WHERE price > 99999", "0"},
		{"SELECT COUNT(*) WHERE price >= -5", "6"},
		{"SELECT COUNT(*) WHERE price < -5", "0"},
		{"SELECT COUNT(*) WHERE delta <= -50", "1"},
		{"SELECT COUNT(*) WHERE delta > 49", "1"},
		{"SELECT COUNT(*) WHERE delta BETWEEN -100 AND 100", "6"},
	}
	for _, c := range cases {
		res := run(t, cat, c.sql)
		if res.Rows[0][0] != c.want {
			t.Errorf("%s = %q, want %q", c.sql, res.Rows[0][0], c.want)
		}
	}
}

func TestExecuteInAndBetween(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT COUNT(*) WHERE qty IN (5, 50, 63)")
	if res.Rows[0][0] != "2" {
		t.Errorf("IN count = %q", res.Rows[0][0])
	}
	res = run(t, cat, "SELECT SUM(qty) WHERE qty BETWEEN 3 AND 10")
	if res.Rows[0][0] != "18" { // 5+3+10
		t.Errorf("BETWEEN sum = %q", res.Rows[0][0])
	}
}

func TestExecuteGroupBy(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT COUNT(*), SUM(qty), MAX(price) GROUP BY region")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Keys ascend in dictionary order: APAC, EU, US.
	wantRows := [][]string{
		{"APAC", "1", "50", "500.00"},
		{"EU", "3", "16", "10.50"},
		{"US", "2", "27", "99.99"},
	}
	for i, want := range wantRows {
		for j, w := range want {
			if res.Rows[i][j] != w {
				t.Errorf("group row %d col %d = %q, want %q", i, j, res.Rows[i][j], w)
			}
		}
	}
	if res.Headers[0] != "region" || res.Headers[1] != "count(*)" {
		t.Errorf("headers = %v", res.Headers)
	}
}

func TestExecuteGroupByMultiColumn(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT COUNT(*), SUM(qty) GROUP BY region, price")
	// Distinct (region, price) pairs ascending: APAC/500.00, EU/0.01,
	// EU/10.50 (two rows), US/25.25, US/99.99.
	wantRows := [][]string{
		{"APAC", "500.00", "1", "50"},
		{"EU", "0.01", "1", "1"},
		{"EU", "10.50", "2", "15"},
		{"US", "25.25", "1", "3"},
		{"US", "99.99", "1", "24"},
	}
	if len(res.Rows) != len(wantRows) {
		t.Fatalf("groups = %d: %v", len(res.Rows), res.Rows)
	}
	for i, want := range wantRows {
		for j, w := range want {
			if res.Rows[i][j] != w {
				t.Errorf("group row %d col %d = %q, want %q", i, j, res.Rows[i][j], w)
			}
		}
	}
	if res.Headers[0] != "region" || res.Headers[1] != "price" || res.Headers[2] != "count(*)" {
		t.Errorf("headers = %v", res.Headers)
	}

	// The same rows selected by an IN-list predicate (which never fuses,
	// so the partition starts from a materialized selection) must produce
	// identical rows.
	viaIn := run(t, cat, "SELECT COUNT(*), SUM(qty) WHERE qty IN (1, 3, 5, 10, 24, 50) GROUP BY region, price")
	if len(viaIn.Rows) != len(res.Rows) {
		t.Fatalf("IN-list groups = %d, comparison-predicate groups %d", len(viaIn.Rows), len(res.Rows))
	}
	for i := range viaIn.Rows {
		for j := range viaIn.Rows[i] {
			if viaIn.Rows[i][j] != res.Rows[i][j] {
				t.Errorf("IN-list row %d col %d = %q, comparison-predicate %q", i, j, viaIn.Rows[i][j], res.Rows[i][j])
			}
		}
	}
}

func TestExecuteGroupByWithWhere(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT SUM(qty) WHERE price < 50 GROUP BY region")
	// price<50: EU rows (qty 5,1,10), US row (qty 3). APAC filtered out.
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0] != "EU" || res.Rows[0][1] != "16" {
		t.Errorf("EU row = %v", res.Rows[0])
	}
	if res.Rows[1][0] != "US" || res.Rows[1][1] != "3" {
		t.Errorf("US row = %v", res.Rows[1])
	}
}

func TestExecuteQuantile(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT QUANTILE(qty, 0.5), QUANTILE(qty, 1)")
	if res.Rows[0][0] != "5" || res.Rows[0][1] != "50" {
		t.Errorf("quantiles = %v", res.Rows[0])
	}
}

func TestExecuteStringPredicates(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT COUNT(*) WHERE region != 'EU'")
	if res.Rows[0][0] != "3" {
		t.Errorf("!= EU count = %q", res.Rows[0][0])
	}
	res = run(t, cat, "SELECT COUNT(*) WHERE region = 'MARS'")
	if res.Rows[0][0] != "0" {
		t.Errorf("= MARS count = %q", res.Rows[0][0])
	}
	res = run(t, cat, "SELECT COUNT(*) WHERE region != 'MARS'")
	if res.Rows[0][0] != "6" {
		t.Errorf("!= MARS count = %q", res.Rows[0][0])
	}
}

func TestExecuteExecOptionsAgree(t *testing.T) {
	cat := loadSales(t)
	q, _ := Parse("SELECT SUM(qty), MEDIAN(price) WHERE qty > 1 GROUP BY region")
	base, err := Execute(cat, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Execute(cat, q, ExecOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Rows {
		for j := range base.Rows[i] {
			if base.Rows[i][j] != fast.Rows[i][j] {
				t.Errorf("row %d col %d: %q vs %q", i, j, base.Rows[i][j], fast.Rows[i][j])
			}
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	cat := loadSales(t)
	cases := []string{
		"SELECT SUM(nope)",
		"SELECT SUM(region)",
		"SELECT AVG(region)",
		"SELECT COUNT(*) WHERE nope = 1",
		"SELECT COUNT(*) WHERE region < 'EU'",
		"SELECT COUNT(*) WHERE qty = 'five'",
		"SELECT COUNT(*) GROUP BY nope",
	}
	for _, sql := range cases {
		q, err := Parse(sql)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := Execute(cat, q, ExecOptions{}); err == nil {
			t.Errorf("Execute(%q) succeeded, want error", sql)
		}
	}
}

func TestExecuteNulls(t *testing.T) {
	specs, _ := catalog.ParseSchema("id:uint(8), v:uint(8)")
	cat, err := catalog.LoadCSV(strings.NewReader("id,v\n1,10\n2,\n3,30\n"), specs)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, cat, "SELECT COUNT(*), COUNT(v), SUM(v), MIN(v)")
	want := []string{"3", "2", "40", "10"}
	for i, w := range want {
		if res.Rows[0][i] != w {
			t.Errorf("col %d = %q, want %q", i, res.Rows[0][i], w)
		}
	}
}

// TestEmptyGroupedResultIsNil: a grouped statement that selects no row
// answers with no rows — nil, the same on every store.
func TestEmptyGroupedResultIsNil(t *testing.T) {
	flat, sharded := loadSalesSharded(t, 2)
	for _, cat := range []*catalog.Catalog{flat, sharded} {
		for _, sql := range []string{
			"SELECT COUNT(*), SUM(qty) WHERE qty > 60 GROUP BY region",
			"SELECT MEDIAN(price) WHERE region IN ('NOWHERE') GROUP BY region, qty",
			"SELECT COUNT(*) WHERE rownum BETWEEN 4 AND 2 GROUP BY region",
		} {
			if res := run(t, cat, sql); res.Rows != nil {
				t.Errorf("%d shards, %q: Rows = %#v, want nil", cat.Store().NumShards(), sql, res.Rows)
			}
		}
	}
}

// TestBadAggFuncIsBadQuery: an aggregate code outside the AST's range in
// a hand-built query is the query's fault on every store, reported before
// any engine call — bpaggd answers 400, not 500.
func TestBadAggFuncIsBadQuery(t *testing.T) {
	flat, sharded := loadSalesSharded(t, 2)
	for _, cat := range []*catalog.Catalog{flat, sharded} {
		for _, q := range []*Query{
			{Selects: []SelectExpr{{Func: AggFunc(99), Column: "qty"}}},
			{Selects: []SelectExpr{{Func: Sum, Column: "qty"}, {Func: AggFunc(-1), Column: "qty"}}, GroupBy: []string{"region"}},
		} {
			rec := bpagg.NewStatsCollector()
			_, err := Execute(cat, q, ExecOptions{Stats: rec})
			var bad *BadQueryError
			if !errors.As(err, &bad) {
				t.Errorf("%d shards: err = %v (%T), want *BadQueryError", cat.Store().NumShards(), err, err)
			}
			if s := rec.Snapshot(); s.Scans != 0 || s.Aggregates != 0 || s.ShardsScanned != 0 {
				t.Errorf("%d shards: engine ran before the rejection: %+v", cat.Store().NumShards(), s)
			}
		}
	}
}
