package sqlmini

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// Regression tests for the hardened executor: malformed queries return
// errors from Exec — never a panic — and ctx cancellation propagates.

// execDontPanic parses (when the text parses) and executes, converting
// any panic into a test failure.
func execDontPanic(t *testing.T, sql string) error {
	t.Helper()
	cat := loadSales(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("query %q panicked: %v", sql, r)
		}
	}()
	q, err := Parse(sql)
	if err != nil {
		return err
	}
	_, err = Execute(cat, q, ExecOptions{})
	return err
}

func TestBadQueriesReturnErrors(t *testing.T) {
	for _, sql := range []string{
		"SELECT SUM(nope)",                       // unknown column in SELECT
		"SELECT COUNT(*) WHERE nope = 3",         // unknown column in WHERE
		"SELECT COUNT(*) GROUP BY nope",          // unknown GROUP BY column
		"SELECT MEDIAN(missing) WHERE price > 1", // unknown aggregate target
		"SELECT QUANTILE(qty, 1.5)",              // quantile out of range (parser)
		"SELECT QUANTILE(qty, -0.5)",             // negative quantile (parser)
		"SELECT SUM(region)",                     // SUM over string column
		"SELECT AVG(region)",                     // AVG over string column
		"SELECT COUNT(*) WHERE region < 'EU'",    // ordering on string column
		"SELECT FROBNICATE(qty)",                 // unknown aggregate
		"SELECT",                                 // truncated query
		"SELECT SUM(qty) WHERE",                  // truncated WHERE
		"SELECT SUM(qty) GROUP BY",               // truncated GROUP BY
		"SELECT SUM(qty) WHERE qty BETWEEN 1",    // truncated BETWEEN
		"SELECT SUM(qty) trailing garbage here",  // trailing tokens
		"SELECT QUANTILE(qty)",                   // missing quantile argument
		"SELECT SUM(qty) WHERE region IN ()",     // empty IN list
		"SELECT SUM(qty) WHERE qty = 'NaN'",      // string literal on numeric column
	} {
		if err := execDontPanic(t, sql); err == nil {
			t.Errorf("query %q: no error", sql)
		}
	}
}

// TestBadASTReturnsErrors drives Execute with hand-built ASTs that
// bypass the parser's validation — the path a programmatic caller (or a
// future parser bug) would take.
func TestBadASTReturnsErrors(t *testing.T) {
	cat := loadSales(t)
	for _, q := range []*Query{
		{Selects: []SelectExpr{{Func: Quantile, Column: "qty", Arg: 7.5}}},
		{Selects: []SelectExpr{{Func: Quantile, Column: "qty", Arg: -1}}},
		{Selects: []SelectExpr{{Func: AggFunc(99), Column: "qty"}}},
		{Selects: []SelectExpr{{Func: Sum, Column: "ghost"}}},
		{Selects: []SelectExpr{{Func: Min, Column: "qty"}}, GroupBy: []string{"ghost"}},
		{Selects: []SelectExpr{{Func: Min, Column: "qty"}}, GroupBy: []string{"region", "ghost"}},
		{Selects: []SelectExpr{{Func: Min, Column: "qty"}},
			Where: []Condition{{Column: "ghost", Op: OpEq, Lits: []Literal{{Num: 1}}}}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("AST %+v panicked: %v", q, r)
				}
			}()
			if _, err := Execute(cat, q, ExecOptions{}); err == nil {
				t.Errorf("AST %+v: no error", q)
			}
		}()
	}
}

func TestGoodQueriesStillWork(t *testing.T) {
	cat := loadSales(t)
	res := run(t, cat, "SELECT QUANTILE(qty, 0.5), MEDIAN(price) WHERE qty >= 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	cat := loadSales(t)
	q, err := Parse("SELECT SUM(qty), MEDIAN(price) GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteContext(ctx, cat, q, ExecOptions{Threads: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteContext with canceled ctx = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := ExecuteContext(expired, cat, q, ExecOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExecuteContext with expired deadline = %v, want context.DeadlineExceeded", err)
	}

	// The same query still runs with a live ctx.
	if _, err := ExecuteContext(context.Background(), cat, q, ExecOptions{Threads: 2}); err != nil {
		t.Fatalf("ExecuteContext with live ctx: %v", err)
	}
}

// TestREPLStyleErrorRecovery mimics the CLI loop: a failing query must
// leave the catalog usable for the next one.
func TestREPLStyleErrorRecovery(t *testing.T) {
	cat := loadSales(t)
	for _, sql := range []string{
		"SELECT SUM(nope)",
		"SELECT SUM(qty)",
		"SELECT COUNT(*) WHERE ghost = 1",
		"SELECT MEDIAN(price) GROUP BY region",
	} {
		q, err := Parse(sql)
		if err != nil {
			continue
		}
		_, _ = Execute(cat, q, ExecOptions{})
	}
	res := run(t, cat, "SELECT COUNT(*)")
	if res.Rows[0][0] != "6" {
		t.Fatalf("catalog damaged by failed queries: COUNT(*) = %s", res.Rows[0][0])
	}
}

// TestFuzzSeedsNoPanic hammers Execute with a pile of structurally odd
// but parseable inputs.
func TestFuzzSeedsNoPanic(t *testing.T) {
	cat := loadSales(t)
	seeds := []string{
		"SELECT COUNT(*) WHERE price BETWEEN 99999 AND -99999",
		"SELECT MIN(delta) WHERE delta < -9999999",
		"SELECT MAX(qty) WHERE qty IN (0, 63, 64, 9999)",
		"SELECT QUANTILE(price, 0), QUANTILE(price, 1)",
		"SELECT SUM(qty) WHERE region != 'NOWHERE'",
		"SELECT AVG(price) WHERE price = 10.505",
		strings.Repeat("SELECT COUNT(*) WHERE qty > 1 AND qty > 2 AND qty > 3", 1),
	}
	for _, sql := range seeds {
		q, err := Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("query %q panicked: %v", sql, r)
				}
			}()
			if _, err := Execute(cat, q, ExecOptions{Threads: 2, Auto: true}); err != nil {
				t.Errorf("query %q: %v", sql, err)
			}
		}()
	}
}
