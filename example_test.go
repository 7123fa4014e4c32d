package bpagg_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"bpagg"
)

// The basic pipeline: pack, scan, aggregate. Every aggregate is a
// ...Context method that returns its failure as an error.
func Example() {
	ctx := context.Background()
	col := bpagg.NewColumn(bpagg.VBP, 8)
	col.Append(10, 200, 30, 40, 250)

	sel := col.Scan(bpagg.Less(100))
	fmt.Println("selected:", sel.Count())
	sum, err1 := col.SumContext(ctx, sel)
	med, _, err2 := col.MedianContext(ctx, sel)
	if err := errors.Join(err1, err2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sum:", sum)
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
	fmt.Println(price.SumContext(context.Background(), sel))
	// Output: 50 <nil>
}

// Rank generalizes MEDIAN to any order statistic — here a p90.
func ExampleColumn_QuantileContext() {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	col := bpagg.FromValues(bpagg.HBP, 7, vals)
	fmt.Println(col.QuantileContext(context.Background(), col.All(), 0.9))
	// Output: 90 true <nil>
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

	fmt.Println(tbl.Query().Where("region", bpagg.Equal(1)).SumContext(context.Background(), "amount"))
	// Output: 600 <nil>
}

// GroupByContext partitions a query by a column's distinct values, each
// group selected by one bit-parallel equality scan.
func ExampleQuery_GroupByContext() {
	ctx := context.Background()
	tbl := bpagg.NewTable()
	tbl.AddColumn("dept", bpagg.VBP, 2)
	tbl.AddColumn("salary", bpagg.VBP, 12)
	tbl.AppendColumnar(map[string][]uint64{
		"dept":   {0, 1, 0, 1, 1},
		"salary": {3000, 2000, 3500, 2500, 1500},
	})

	g, err := tbl.Query().GroupByContext(ctx, "dept")
	if err != nil {
		log.Fatal(err)
	}
	sums, err := g.SumContext(ctx, "salary")
	if err != nil {
		log.Fatal(err)
	}
	for i, key := range g.Keys() {
		fmt.Printf("dept %d: %d\n", key, sums[i])
	}
	// Output:
	// dept 0: 6500
	// dept 1: 6000
}

// Codecs map domain types onto the unsigned codes the bit-parallel
// operators require: a decimal column is a Column of Decimal codes, its
// scans take encoded constants and its SUM decodes through DecodeSum.
func ExampleDecimal() {
	codec := bpagg.Decimal{Scale: 2, Max: 1000}
	price := bpagg.NewColumn(bpagg.VBP, codec.Bits())
	for _, v := range []float64{19.99, 5.50, 127.45} {
		price.Append(codec.Encode(v))
	}

	cheap := price.Scan(bpagg.Less(codec.Encode(20)))
	sum, err := price.SumContext(context.Background(), cheap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.2f\n", codec.DecodeSum(sum))
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
	fmt.Println(col.SumContext(context.Background(), all))
	// Output:
	// count(*):  3
	// count(col): 2
	// 30 <nil>
}

// Aggregation accelerates with goroutines — the multi-threading axis of
// the paper's §IV-B.
func ExampleParallel() {
	vals := make([]uint64, 100000)
	for i := range vals {
		vals[i] = uint64(i % 1000)
	}
	col := bpagg.FromValues(bpagg.VBP, 10, vals)
	fmt.Println(col.SumContext(context.Background(), col.All(), bpagg.Parallel(4)))
	// Output: 49950000 <nil>
}
