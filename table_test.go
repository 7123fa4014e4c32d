package bpagg

import (
	"math/rand"
	"testing"
)

func buildOrdersTable(t *testing.T, n int) (*Table, []uint64, []uint64, []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	price := make([]uint64, n)
	qty := make([]uint64, n)
	region := make([]uint64, n)
	for i := 0; i < n; i++ {
		price[i] = uint64(rng.Intn(1 << 16))
		qty[i] = uint64(rng.Intn(50) + 1)
		region[i] = uint64(rng.Intn(5))
	}
	tbl := NewTable()
	tbl.AddColumn("price", VBP, 16)
	tbl.AddColumn("qty", HBP, 6)
	tbl.AddColumn("region", VBP, 3)
	tbl.AppendColumnar(map[string][]uint64{
		"price": price, "qty": qty, "region": region,
	})
	return tbl, price, qty, region
}

func TestTableQueryEndToEnd(t *testing.T) {
	const n = 2000
	tbl, price, qty, region := buildOrdersTable(t, n)
	if tbl.Rows() != n {
		t.Fatalf("Rows = %d", tbl.Rows())
	}

	// SELECT SUM(qty), COUNT(*), MEDIAN(price) WHERE price < 30000 AND region = 2
	q := tbl.Query().Where("price", Less(30000)).Where("region", Equal(2))
	var wantSum, wantCount uint64
	var keptPrices []uint64
	for i := 0; i < n; i++ {
		if price[i] < 30000 && region[i] == 2 {
			wantSum += qty[i]
			wantCount++
			keptPrices = append(keptPrices, price[i])
		}
	}
	if got := q.CountRows(); got != wantCount {
		t.Fatalf("CountRows = %d, want %d", got, wantCount)
	}
	if got := q.Sum("qty"); got != wantSum {
		t.Fatalf("Sum(qty) = %d, want %d", got, wantSum)
	}
	med, ok := q.Median("price")
	if !ok {
		t.Fatal("Median not ok")
	}
	// Verify by counting how many kept prices are below/at the median.
	var below, atOrBelow uint64
	for _, p := range keptPrices {
		if p < med {
			below++
		}
		if p <= med {
			atOrBelow++
		}
	}
	r := (wantCount + 1) / 2
	if below >= r || atOrBelow < r {
		t.Fatalf("median %d has rank window (%d, %d], want to contain %d", med, below, atOrBelow, r)
	}
}

func TestTableQueryNoFilter(t *testing.T) {
	tbl, price, _, _ := buildOrdersTable(t, 500)
	var want uint64
	for _, p := range price {
		want += p
	}
	if got := tbl.Query().Sum("price"); got != want {
		t.Fatalf("unfiltered Sum = %d, want %d", got, want)
	}
	if got := tbl.Query().CountRows(); got != 500 {
		t.Fatalf("unfiltered CountRows = %d", got)
	}
}

func TestTableQueryWithExecOptions(t *testing.T) {
	tbl, _, _, _ := buildOrdersTable(t, 3000)
	base := tbl.Query().Where("price", Less(40000)).Sum("qty")
	got := tbl.Query().Where("price", Less(40000)).With(Parallel(4)).Sum("qty")
	if got != base {
		t.Fatalf("parallel Sum = %d, want %d", got, base)
	}
}

func TestTableAppendRow(t *testing.T) {
	tbl := NewTable()
	tbl.AddColumn("a", VBP, 8)
	tbl.AddColumn("b", HBP, 8)
	tbl.AppendRow(map[string]uint64{"a": 1, "b": 2})
	tbl.AppendRow(map[string]uint64{"a": 3, "b": 4})
	if tbl.Rows() != 2 {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	if got := tbl.Query().Sum("a"); got != 4 {
		t.Errorf("Sum(a) = %d", got)
	}
	if got := tbl.Query().Sum("b"); got != 6 {
		t.Errorf("Sum(b) = %d", got)
	}
	cols := tbl.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestTableMinMaxAvgRankQuantile(t *testing.T) {
	tbl := NewTable()
	tbl.AddColumn("v", HBP, 8)
	tbl.AppendColumnar(map[string][]uint64{"v": {10, 20, 30, 40, 50}})
	q := tbl.Query().Where("v", Greater(10))
	if got, ok := q.Min("v"); !ok || got != 20 {
		t.Errorf("Min = (%d,%v)", got, ok)
	}
	if got, ok := q.Max("v"); !ok || got != 50 {
		t.Errorf("Max = (%d,%v)", got, ok)
	}
	if got, ok := tbl.Query().Where("v", Greater(10)).Avg("v"); !ok || got != 35 {
		t.Errorf("Avg = (%v,%v)", got, ok)
	}
	if got, ok := tbl.Query().Where("v", Greater(10)).Rank("v", 2); !ok || got != 30 {
		t.Errorf("Rank(2) = (%d,%v)", got, ok)
	}
	if got, ok := tbl.Query().Where("v", Greater(10)).Quantile("v", 1); !ok || got != 50 {
		t.Errorf("Quantile(1) = (%d,%v)", got, ok)
	}
}

func TestTablePanics(t *testing.T) {
	check := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	tbl := NewTable()
	tbl.AddColumn("a", VBP, 8)
	check("duplicate column", func() { tbl.AddColumn("a", VBP, 8) })
	check("unknown Where column", func() { tbl.Query().Where("zzz", Equal(1)) })
	check("unknown agg column", func() { tbl.Query().Sum("zzz") })
	check("short row", func() { tbl.AppendRow(map[string]uint64{}) })
	check("wrong row key", func() { tbl.AppendRow(map[string]uint64{"b": 1}) })
	tbl.AppendRow(map[string]uint64{"a": 1})
	check("AddColumn after rows", func() { tbl.AddColumn("late", VBP, 8) })
	check("ragged columnar load", func() {
		t2 := NewTable()
		t2.AddColumn("x", VBP, 8)
		t2.AddColumn("y", VBP, 8)
		t2.AppendColumnar(map[string][]uint64{"x": {1}, "y": {1, 2}})
	})
}

func TestCodecs(t *testing.T) {
	d := Decimal{Scale: 2, Max: 104999.99}
	if d.Bits() != 24 {
		t.Errorf("Decimal bits = %d, want 24 (the paper's l_extendedprice)", d.Bits())
	}
	if d.Decode(d.Encode(95.5)) != 95.5 {
		t.Error("Decimal round trip failed")
	}
	if d.DecodeSum(d.Encode(1.25)+d.Encode(2.50)) != 3.75 {
		t.Error("DecodeSum failed")
	}

	s := Signed{Min: -100, Max: 100}
	if s.Bits() != 8 {
		t.Errorf("Signed bits = %d", s.Bits())
	}
	if s.Decode(s.Encode(-37)) != -37 {
		t.Error("Signed round trip failed")
	}
	if s.DecodeSum(s.Encode(-5)+s.Encode(10), 2) != 5 {
		t.Error("Signed DecodeSum failed")
	}

	dict := NewDict()
	for _, k := range []string{"URGENT", "HIGH", "MEDIUM", "LOW"} {
		dict.Add(k)
	}
	dict.Freeze()
	if dict.Bits() != 2 {
		t.Errorf("Dict bits = %d", dict.Bits())
	}
	c1, ok1 := dict.Encode("HIGH")
	c2, ok2 := dict.Encode("LOW")
	if !ok1 || !ok2 || c1 >= c2 { // lexicographic: HIGH < LOW
		t.Errorf("Dict order broken: HIGH=%d LOW=%d", c1, c2)
	}
	if dict.Decode(c1) != "HIGH" {
		t.Error("Dict decode failed")
	}
	if _, ok := dict.Encode("NONE"); ok {
		t.Error("unknown key should not encode")
	}
	if BitsFor(0) != 1 || BitsFor(255) != 8 || BitsFor(256) != 9 {
		t.Error("BitsFor wrong")
	}
}
