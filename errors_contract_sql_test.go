package bpagg_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/server"
	"bpagg/internal/sqlmini"
)

// TestGroupCardinalityThroughSQL follows the over-budget GROUP BY answer
// up the stack the error-contract table cannot import: sqlmini.Execute and
// ExplainAnalyze return an error that still is ErrGroupCardinality (not a
// *BadQueryError — the statement is fine), on a flat-built and a sharded
// catalog, under a rownum range too, and bpaggd answers 422 "cardinality".
func TestGroupCardinalityThroughSQL(t *testing.T) {
	defer bpagg.LowerHashGroupBudget(100)()

	var csv strings.Builder
	csv.WriteString("g,v\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, i%7)
	}
	specs, err := catalog.ParseSchema("g:uint(11), v:uint(3)")
	if err != nil {
		t.Fatal(err)
	}
	for _, shardRows := range []int{0, 128} {
		cat, err := catalog.LoadCSV(strings.NewReader(csv.String()), specs)
		if err != nil {
			t.Fatal(err)
		}
		if shardRows > 0 {
			cat.Shard(shardRows)
		}
		for _, sql := range []string{
			"SELECT COUNT(*), SUM(v) GROUP BY g",
			"SELECT COUNT(*) WHERE rownum BETWEEN 10 AND 289 GROUP BY g",
		} {
			q, err := sqlmini.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			var bad *sqlmini.BadQueryError
			if _, err := sqlmini.Execute(cat, q, sqlmini.ExecOptions{}); !errors.Is(err, bpagg.ErrGroupCardinality) || errors.As(err, &bad) {
				t.Errorf("shardRows=%d Execute(%q) = %v, want ErrGroupCardinality", shardRows, sql, err)
			}
			if _, err := sqlmini.ExplainAnalyze(cat, q, sqlmini.ExecOptions{}); !errors.Is(err, bpagg.ErrGroupCardinality) {
				t.Errorf("shardRows=%d ExplainAnalyze(%q) = %v, want ErrGroupCardinality", shardRows, sql, err)
			}

			srv, err := server.New(server.Config{Catalog: cat})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(sql)))
			if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), `"kind":"cardinality"`) {
				t.Errorf("shardRows=%d bpaggd(%q) = %d %s, want 422 cardinality", shardRows, sql, rec.Code, rec.Body.String())
			}
		}
	}
}
