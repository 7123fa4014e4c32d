// Web-log analytics: HTTP access records with dictionary-encoded methods
// and status classes, scanned and aggregated bit-parallel. Shows the
// codecs (Dict for strings, Decimal for response times) and bitmap
// composition (AND / OR / NOT of independent scans, §II-E of the paper).
//
//	go run ./examples/logscan
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

const requests = 2 << 20

func main() {
	// Dictionaries: order-preserving codes for low-cardinality strings.
	methods := bpagg.NewDict()
	for _, m := range []string{"DELETE", "GET", "HEAD", "POST", "PUT"} {
		methods.Add(m)
	}
	methods.Freeze()

	latency := bpagg.Decimal{Scale: 1, Max: 6553.5} // tenths of a millisecond

	rng := rand.New(rand.NewSource(2024))
	methodCol := make([]uint64, requests)
	statusCol := make([]uint64, requests)  // 100..599, 10 bits
	latencyCol := make([]uint64, requests) // scaled ms
	bytesCol := make([]uint64, requests)   // 20 bits

	names := []string{"GET", "GET", "GET", "GET", "POST", "PUT", "HEAD", "DELETE"}
	for i := 0; i < requests; i++ {
		name := names[rng.Intn(len(names))]
		code, _ := methods.Encode(name)
		methodCol[i] = code
		switch r := rng.Intn(100); {
		case r < 90:
			statusCol[i] = 200
		case r < 95:
			statusCol[i] = uint64(300 + rng.Intn(8))
		case r < 98:
			statusCol[i] = uint64(400 + rng.Intn(30))
		default:
			statusCol[i] = uint64(500 + rng.Intn(4))
		}
		ms := rng.ExpFloat64() * 25
		if statusCol[i] >= 500 {
			ms += 200 // slow failures
		}
		if ms > latency.Max {
			ms = latency.Max
		}
		latencyCol[i] = latency.Encode(ms)
		bytesCol[i] = uint64(rng.Intn(1 << 20))
	}

	tbl := bpagg.NewTable()
	tbl.AddColumn("method", bpagg.VBP, methods.Bits())
	tbl.AddColumn("status", bpagg.VBP, 10)
	tbl.AddColumn("latency", bpagg.VBP, latency.Bits())
	tbl.AddColumn("bytes", bpagg.HBP, 20)
	tbl.AppendColumnar(map[string][]uint64{
		"method": methodCol, "status": statusCol,
		"latency": latencyCol, "bytes": bytesCol,
	})

	start := time.Now()

	// Error-rate panel: status >= 400, split 4xx vs 5xx.
	status := tbl.Column("status")
	clientErr := status.Scan(bpagg.Between(400, 499))
	serverErr := status.Scan(bpagg.GreaterEq(500))
	allErr := clientErr.Clone().Or(serverErr)
	fmt.Printf("requests: %d   4xx: %d   5xx: %d   error rate: %.2f%%\n",
		requests, clientErr.Count(), serverErr.Count(),
		100*float64(allErr.Count())/requests)

	// Latency panel, overall and for errors only.
	// Every aggregate returns its failure as an error; the program stops
	// on any.
	ctx := context.Background()
	lat := tbl.Column("latency")
	all := lat.All()
	p50, _, err1 := lat.QuantileContext(ctx, all, 0.50)
	p99, _, err2 := lat.QuantileContext(ctx, all, 0.99)
	e50, _, err3 := lat.QuantileContext(ctx, serverErr, 0.50)
	check(err1, err2, err3)
	fmt.Printf("latency p50: %.1f ms   p99: %.1f ms   5xx median: %.1f ms\n",
		latency.Decode(p50), latency.Decode(p99), latency.Decode(e50))

	// Method breakdown: GET traffic that succeeded, excluding errors.
	getCode, _ := methods.Encode("GET")
	getOK := tbl.Column("method").Scan(bpagg.Equal(getCode)).AndNot(allErr)
	bytes := tbl.Column("bytes")
	sumBytes, err1 := bytes.SumContext(ctx, getOK, bpagg.Parallel(4))
	avgBytes, _, err2 := bytes.AvgContext(ctx, getOK)
	check(err1, err2)
	fmt.Printf("successful GETs: %d  total %d MB  avg %.0f B\n",
		getOK.Count(), sumBytes>>20, avgBytes)

	// Slow-request investigation: NOT error AND latency > 100 ms.
	slowOK := lat.Scan(bpagg.Greater(latency.Encode(100))).AndNot(allErr)
	medBytes, ok, err := bytes.MedianContext(ctx, slowOK)
	check(err)
	if ok {
		fmt.Printf("slow-but-successful requests: %d (median payload %d B)\n",
			slowOK.Count(), medBytes)
	}

	fmt.Printf("dashboard computed in %v\n", time.Since(start))
}

// check stops the program on any aggregate's error.
func check(errs ...error) {
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
}
