// Quickstart: pack a column, scan it, and run every aggregate — then check
// the same answers against a plain-slice implementation and compare times.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"bpagg"
)

const (
	n = 4 << 20 // tuples
	k = 16      // bits per value
)

func main() {
	rng := rand.New(rand.NewSource(42))
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(rng.Intn(1 << k))
	}

	// Pack the column. VBP stores exactly k bits per value; try bpagg.HBP
	// to trade a little space for cheaper row reconstruction.
	col := bpagg.FromValues(bpagg.VBP, k, values)
	fmt.Printf("packed %d values of %d bits into %d words (%.1f bits/value)\n",
		col.Len(), k, col.MemoryWords(), float64(64*col.MemoryWords())/float64(n))

	// Bit-parallel filter scan: WHERE value < 20000.
	start := time.Now()
	sel := col.Scan(bpagg.Less(20000))
	scanTime := time.Since(start)
	fmt.Printf("scan (value < 20000): %d rows in %v (%.2f ns/row)\n",
		sel.Count(), scanTime, float64(scanTime.Nanoseconds())/n)

	// Bit-parallel aggregation over the selection. Every aggregate returns
	// its failure as an error; the program stops on any.
	ctx := context.Background()
	start = time.Now()
	count := col.Count(sel)
	sum, err1 := col.SumContext(ctx, sel)
	min, _, err2 := col.MinContext(ctx, sel)
	max, _, err3 := col.MaxContext(ctx, sel)
	avg, _, err4 := col.AvgContext(ctx, sel)
	med, _, err5 := col.MedianContext(ctx, sel)
	p99, _, err6 := col.QuantileContext(ctx, sel, 0.99)
	bpTime := time.Since(start)
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregates: count=%d sum=%d min=%d max=%d avg=%.2f median=%d p99=%d\n",
		count, sum, min, max, avg, med, p99)
	fmt.Printf("bit-parallel aggregation of 7 aggregates: %v\n", bpTime)

	// The same, the usual way: walk a plain slice.
	start = time.Now()
	var (
		pCount, pSum uint64
		kept         []uint64
	)
	pMin, pMax := uint64(1<<k), uint64(0)
	for _, v := range values {
		if v < 20000 {
			pCount++
			pSum += v
			if v < pMin {
				pMin = v
			}
			if v > pMax {
				pMax = v
			}
			kept = append(kept, v)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	pMed := kept[(len(kept)+1)/2-1]
	pP99 := kept[(len(kept)*99+99)/100-1]
	plainTime := time.Since(start)
	fmt.Printf("plain-slice evaluation: %v (%.1fx slower)\n",
		plainTime, float64(plainTime)/float64(bpTime+scanTime))

	// Verify agreement.
	pAvg := float64(pSum) / float64(pCount)
	if count != pCount || sum != pSum || min != pMin || max != pMax ||
		avg != pAvg || med != pMed || p99 != pP99 {
		log.Fatal("MISMATCH between bit-parallel and plain results!")
	}
	fmt.Println("bit-parallel and plain-slice results agree")
}
