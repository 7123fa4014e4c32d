package bpagg_test

import (
	"fmt"

	"bpagg"
)

// The basic pipeline: pack, scan, aggregate.
func Example() {
	col := bpagg.NewColumn(bpagg.VBP, 8)
	col.Append(10, 200, 30, 40, 250)

	sel := col.Scan(bpagg.Less(100))
	fmt.Println("selected:", sel.Count())
	fmt.Println("sum:", col.Sum(sel))
	med, _ := col.Median(sel)
	fmt.Println("median:", med)
	// Output:
	// selected: 3
	// sum: 80
	// median: 30
}

// Complex predicates compose by combining selection bitmaps (§II-E of the
// paper).
func ExampleBitmap_And() {
	price := bpagg.FromValues(bpagg.VBP, 8, []uint64{10, 20, 30, 40})
	qty := bpagg.FromValues(bpagg.HBP, 4, []uint64{1, 5, 2, 7})

	sel := price.Scan(bpagg.Greater(15)).And(qty.Scan(bpagg.Less(6)))
	fmt.Println(price.Sum(sel))
	// Output: 50
}

// Rank generalizes MEDIAN to any order statistic — here a p90.
func ExampleColumn_Quantile() {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	col := bpagg.FromValues(bpagg.HBP, 7, vals)
	p90, _ := col.Quantile(col.All(), 0.9)
	fmt.Println(p90)
	// Output: 90
}

// Tables bundle columns into the paper's denormalized wide-table setting.
func ExampleTable() {
	tbl := bpagg.NewTable()
	tbl.AddColumn("region", bpagg.VBP, 2)
	tbl.AddColumn("amount", bpagg.HBP, 10)
	tbl.AppendColumnar(map[string][]uint64{
		"region": {0, 1, 0, 1, 2},
		"amount": {100, 200, 300, 400, 500},
	})

	sum := tbl.Query().Where("region", bpagg.Equal(1)).Sum("amount")
	fmt.Println(sum)
	// Output: 600
}

// GroupBy partitions a query by a column's distinct values, each group
// selected by one bit-parallel equality scan.
func ExampleQuery_GroupBy() {
	tbl := bpagg.NewTable()
	tbl.AddColumn("dept", bpagg.VBP, 2)
	tbl.AddColumn("salary", bpagg.VBP, 12)
	tbl.AppendColumnar(map[string][]uint64{
		"dept":   {0, 1, 0, 1, 1},
		"salary": {3000, 2000, 3500, 2500, 1500},
	})

	g := tbl.Query().GroupBy("dept")
	sums := g.Sum("salary")
	for i, key := range g.Keys() {
		fmt.Printf("dept %d: %d\n", key, sums[i])
	}
	// Output:
	// dept 0: 6500
	// dept 1: 6000
}

// Codecs map domain types onto the unsigned codes the bit-parallel
// operators require; typed columns bundle the two.
func ExampleDecimalColumn() {
	price := bpagg.NewDecimalColumn(bpagg.VBP, bpagg.Decimal{Scale: 2, Max: 1000})
	price.Append(19.99, 5.50, 127.45)

	cheap := price.ScanLess(20)
	fmt.Printf("%.2f\n", price.Sum(cheap))
	// Output: 25.49
}

// NULLs never match a scan and are skipped by aggregates, per SQL.
func ExampleColumn_AppendNull() {
	col := bpagg.NewColumn(bpagg.VBP, 8)
	col.Append(10)
	col.AppendNull()
	col.Append(20)

	all := col.All()
	fmt.Println("count(*): ", all.Count())
	fmt.Println("count(col):", col.Count(all))
	fmt.Println("sum:", col.Sum(all))
	// Output:
	// count(*):  3
	// count(col): 2
	// sum: 30
}

// The paper frames bit-parallel aggregation as an access method the
// optimizer picks for non-selective queries; Access(Auto) makes that
// choice per call from the realized selectivity.
func ExampleAccess() {
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = uint64(i % 256)
	}
	col := bpagg.FromValues(bpagg.HBP, 8, vals)

	needle := col.Scan(bpagg.Equal(7)) // ~0.4% selected: Auto reconstructs
	dense := col.Scan(bpagg.Less(128)) // 50% selected: Auto goes bit-parallel
	fmt.Println(col.Sum(needle, bpagg.Access(bpagg.Auto)))
	fmt.Println(col.Sum(dense, bpagg.Access(bpagg.Auto)))
	// Output:
	// 280
	// 317112
}

// Aggregation accelerates with goroutines — the multi-threading axis of
// the paper's §IV-B.
func ExampleParallel() {
	vals := make([]uint64, 100000)
	for i := range vals {
		vals[i] = uint64(i % 1000)
	}
	col := bpagg.FromValues(bpagg.VBP, 10, vals)
	sum := col.Sum(col.All(), bpagg.Parallel(4))
	fmt.Println(sum)
	// Output: 49950000
}
