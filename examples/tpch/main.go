// TPC-H-style analytics on a denormalized wide table — the setting of the
// paper's Table II. Joins and group-bys are materialized away up front
// (WideTable-style), so each query is a conjunctive filter scan plus
// aggregation over single columns, all bit-parallel.
//
//	go run ./examples/tpch
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	"bpagg"
)

const rows = 2 << 20 // scaled-down lineitem

func main() {
	fmt.Printf("building %d-row wide table...\n", rows)
	tbl, price := buildLineitem()
	// Every aggregate returns its failure as an error; the program stops
	// on any.
	ctx := context.Background()

	// Q6-style: forecasting revenue change.
	//   SELECT SUM(revenue) WHERE shipdate in [8766, 9131)
	//     AND discount BETWEEN 5 AND 7 AND quantity < 24
	start := time.Now()
	q6 := tbl.Query().
		Where("shipdate", bpagg.Between(8766, 9130)).
		Where("discount", bpagg.Between(5, 7)).
		Where("quantity", bpagg.Less(24))
	revenue, err1 := q6.SumContext(ctx, "revenue")
	n6, err2 := q6.CountRowsContext(ctx)
	check(err1, err2)
	fmt.Printf("\nQ6  revenue=%s  rows=%d  sel=%.3f  (%v)\n",
		price.DecodeMoney(revenue), n6, float64(n6)/float64(rows), time.Since(start))

	// Q1-style: pricing summary for shipped rows.
	start = time.Now()
	q1 := tbl.Query().Where("shipdate", bpagg.LessEq(9000))
	sumQty, err1 := q1.SumContext(ctx, "quantity")
	sumPrice, err2 := q1.SumContext(ctx, "extendedprice")
	avgQty, _, err3 := q1.AvgContext(ctx, "quantity")
	avgPrice, _, err4 := q1.AvgContext(ctx, "extendedprice")
	cnt, err5 := q1.CountRowsContext(ctx)
	check(err1, err2, err3, err4, err5)
	fmt.Printf("Q1  sum_qty=%d  sum_price=%s  avg_qty=%.2f  avg_price=%s  count=%d  (%v)\n",
		sumQty, price.DecodeMoney(sumPrice), avgQty,
		price.DecodeMoney(uint64(avgPrice)), cnt, time.Since(start))

	// Q15-style: revenue concentration — what does the top of the
	// distribution look like? MEDIAN and quantiles come from the same
	// r-selection algorithm.
	start = time.Now()
	q15 := tbl.Query().Where("shipdate", bpagg.Between(8500, 8590))
	medP, _, err1 := q15.MedianContext(ctx, "extendedprice")
	p95, _, err2 := q15.QuantileContext(ctx, "extendedprice", 0.95)
	maxP, _, err3 := q15.MaxContext(ctx, "extendedprice")
	n15, err4 := q15.CountRowsContext(ctx)
	check(err1, err2, err3, err4)
	fmt.Printf("Q15 median=%s  p95=%s  max=%s over %d rows  (%v)\n",
		price.DecodeMoney(medP), price.DecodeMoney(p95), price.DecodeMoney(maxP),
		n15, time.Since(start))

	// The same Q6 with multi-threading enabled.
	start = time.Now()
	revenue2, err := tbl.Query().
		Where("shipdate", bpagg.Between(8766, 9130)).
		Where("discount", bpagg.Between(5, 7)).
		Where("quantity", bpagg.Less(24)).
		With(bpagg.Parallel(4)).
		SumContext(ctx, "revenue")
	check(err)
	fmt.Printf("\nQ6 again with Parallel(4): %v", time.Since(start))
	if revenue2 != revenue {
		log.Fatal("  MISMATCH!")
	}
	fmt.Println("  (same answer)")
}

// check stops the program on any aggregate's error.
func check(errs ...error) {
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
}

// money is a tiny helper bundling the fixed-point price codec.
type money struct{ bpagg.Decimal }

func (m money) DecodeMoney(code uint64) string {
	return fmt.Sprintf("$%.2f", m.DecodeSum(code))
}

func buildLineitem() (*bpagg.Table, money) {
	price := money{bpagg.Decimal{Scale: 2, Max: 104999.99}}
	rng := rand.New(rand.NewSource(7))

	shipdate := make([]uint64, rows)      // days since epoch, 14 bits
	quantity := make([]uint64, rows)      // 1..50, 6 bits
	discount := make([]uint64, rows)      // 0..10 percent, 4 bits
	extendedprice := make([]uint64, rows) // scaled cents, 24 bits
	revenue := make([]uint64, rows)       // materialized price*(1-disc), 24 bits

	for i := 0; i < rows; i++ {
		shipdate[i] = uint64(8000 + rng.Intn(1400))
		quantity[i] = uint64(1 + rng.Intn(50))
		discount[i] = uint64(rng.Intn(11))
		p := price.Encode(float64(rng.Intn(10000000)) / 100)
		extendedprice[i] = p
		revenue[i] = p * (100 - discount[i]) / 100
	}

	tbl := bpagg.NewTable()
	tbl.AddColumn("shipdate", bpagg.VBP, 14)
	tbl.AddColumn("quantity", bpagg.HBP, 6)
	tbl.AddColumn("discount", bpagg.VBP, 4)
	tbl.AddColumn("extendedprice", bpagg.VBP, price.Bits())
	tbl.AddColumn("revenue", bpagg.VBP, price.Bits())
	tbl.AppendColumnar(map[string][]uint64{
		"shipdate": shipdate, "quantity": quantity, "discount": discount,
		"extendedprice": extendedprice, "revenue": revenue,
	})
	return tbl, price
}
