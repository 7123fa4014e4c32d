// Telemetry percentiles: 12-bit ADC samples from a sensor fleet, windowed
// p50/p95/p99 latency-style reporting. MEDIAN and every other percentile
// come from the same bit-parallel r-selection (Algorithm 3/6 of the paper),
// so no sorting and no value reconstruction ever happens.
//
//	go run ./examples/telemetry
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

const (
	sensors     = 64
	samplesEach = 1 << 15
	total       = sensors * samplesEach
	adcBits     = 12 // raw 12-bit ADC codes
	sensorBits  = 6
	windowSize  = total / 8
)

func main() {
	rng := rand.New(rand.NewSource(99))

	// One flat append-time-ordered table: sensor id + reading.
	readings := make([]uint64, total)
	ids := make([]uint64, total)
	for i := range readings {
		id := uint64(i % sensors)
		ids[i] = id
		// Each sensor has its own baseline; occasional spikes.
		base := 800 + 40*id
		v := base + uint64(rng.Intn(200))
		if rng.Intn(1000) == 0 {
			v += 1500 // spike
		}
		if v >= 1<<adcBits {
			v = 1<<adcBits - 1
		}
		readings[i] = v
	}

	tbl := bpagg.NewTable()
	tbl.AddColumn("sensor", bpagg.VBP, sensorBits)
	tbl.AddColumn("reading", bpagg.HBP, adcBits)
	tbl.AppendColumnar(map[string][]uint64{"sensor": ids, "reading": readings})
	reading := tbl.Column("reading")

	// Every aggregate returns its failure as an error; the program stops
	// on any.
	ctx := context.Background()

	// Fleet-wide percentiles per time window. Window membership is just a
	// bitmap, so it composes with any scan by intersection.
	fmt.Println("window      rows     p50    p95    p99    max")
	start := time.Now()
	for w := 0; w*windowSize < total; w++ {
		win := windowBitmap(total, w*windowSize, (w+1)*windowSize)
		p50, _, err1 := reading.QuantileContext(ctx, win, 0.50)
		p95, _, err2 := reading.QuantileContext(ctx, win, 0.95)
		p99, _, err3 := reading.QuantileContext(ctx, win, 0.99)
		max, _, err4 := reading.MaxContext(ctx, win)
		check(err1, err2, err3, err4)
		fmt.Printf("%6d  %8d  %6d %6d %6d %6d\n", w, win.Count(), p50, p95, p99, max)
	}
	fmt.Printf("8 windows x 4 percentile aggregates in %v\n\n", time.Since(start))

	// Drill into one sensor: its baseline tops out near 3720, so anything
	// above 3800 is a spike.
	q := tbl.Query().Where("sensor", bpagg.Equal(63))
	med, _, err1 := q.MedianContext(ctx, "reading")
	spikes, err2 := tbl.Query().
		Where("sensor", bpagg.Equal(63)).
		Where("reading", bpagg.Greater(3800)).
		CountRowsContext(ctx)
	check(err1, err2)
	fmt.Printf("sensor 63: median reading %d, %d spike samples above 3800\n", med, spikes)

	// Health check across the fleet: sensors whose median deviates from
	// their baseline would page the on-call. Per-sensor medians reuse one
	// scan per sensor id.
	worst, worstDev := uint64(0), 0.0
	for id := uint64(0); id < sensors; id++ {
		m, ok, err := tbl.Query().Where("sensor", bpagg.Equal(id)).MedianContext(ctx, "reading")
		check(err)
		if !ok {
			continue
		}
		baseline := float64(800 + 40*id + 100)
		dev := (float64(m) - baseline) / baseline
		if dev > worstDev {
			worst, worstDev = id, dev
		}
	}
	fmt.Printf("largest median deviation from baseline: sensor %d (%+.1f%%)\n",
		worst, 100*worstDev)
}

// check stops the program on any aggregate's error.
func check(errs ...error) {
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
}

// windowBitmap selects rows [lo, hi) — time windows under append ordering.
func windowBitmap(n, lo, hi int) *bpagg.Bitmap {
	m := bpagg.NewBitmap(n)
	for i := lo; i < hi && i < n; i++ {
		m.Set(i)
	}
	return m
}
