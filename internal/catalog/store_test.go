package catalog_test

import (
	"fmt"
	"strconv"
	"testing"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/sqlmini"
)

// TestStoreAppendAfterQuery: a flat catalog's store is the table's own
// one-part store, so rows appended after it answered a statement are
// seen by the next one — through the catalog bounds that prune on a
// WHERE, and through the row count a rownum range clips to. The appended
// values all lie above the first load's maximum, so stale bounds would
// prune the only part and a stale row count would clip the range away.
func TestStoreAppendAfterQuery(t *testing.T) {
	const base, extra, oldMax = 3000, 500, 999
	first := make([]uint64, base)
	for i := range first {
		first[i] = uint64(i % (oldMax + 1))
	}
	more := make([]uint64, extra)
	for i := range more {
		more[i] = oldMax + 1 + uint64(i%24)*37
	}
	tbl := bpagg.NewTable()
	tbl.AddColumn("v", bpagg.VBP, 11)
	tbl.AppendColumnar(map[string][]uint64{"v": first})
	cat := &catalog.Catalog{Specs: []catalog.Spec{{Name: "v", Kind: catalog.Uint, Layout: bpagg.VBP, Bits: 11}}, Table: tbl}

	exec := func(sql string) string {
		t.Helper()
		q, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sqlmini.Execute(cat, q, sqlmini.ExecOptions{Threads: 1})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return fmt.Sprint(res.Rows)
	}
	above := fmt.Sprintf("SELECT COUNT(*) WHERE v > %d", oldMax)
	if got := exec(above); got != "[[0]]" {
		t.Fatalf("before the append: %s = %s, want [[0]]", above, got)
	}

	tbl.AppendColumnar(map[string][]uint64{"v": more})
	var sum uint64
	for _, v := range more {
		sum += v
	}
	if got, want := exec(above), fmt.Sprintf("[[%d]]", extra); got != want {
		t.Errorf("after the append: %s = %s, want %s", above, got, want)
	}
	ranged := fmt.Sprintf("SELECT SUM(v), COUNT(*) WHERE rownum BETWEEN %d AND %d", base, base+extra-1)
	if got, want := exec(ranged), "[["+strconv.FormatUint(sum, 10)+" "+strconv.Itoa(extra)+"]]"; got != want {
		t.Errorf("after the append: %s = %s, want %s", ranged, got, want)
	}
	if got := cat.Rows(); got != base+extra {
		t.Errorf("catalog rows = %d, want %d", got, base+extra)
	}
}
