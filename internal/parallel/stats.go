package parallel

import (
	"time"

	"bpagg/internal/metrics"
)

// Stats plumbing for the drivers. Collection is per-call: with
// o.Stats == nil the workers never look at the clock or the counters,
// while an enabled driver allocates one ExecStats per worker, lets each
// worker accumulate into its own slot (forEachRangeErr may call a worker
// several times with sub-ranges, so every update is +=), and merges the
// slots into one Record at the end.
//
// The derived counters (SegmentsAggregated, WordsTouched) are counted by
// the kernels themselves (core.FusedStats and the rank kernels' live
// entries and sub-segments); their per-layout definitions are
// documented in DESIGN.md §8. Because they only depend on layout geometry
// and the filter, the totals are identical for any thread count — the
// property the determinism tests and TestDriverCounterPin assert.

// statsBegin returns the per-worker accumulation slots and the driver
// start time, or nils when collection is disabled.
func (o Options) statsBegin() ([]metrics.ExecStats, time.Time) {
	if o.Stats == nil {
		return nil, time.Time{}
	}
	return make([]metrics.ExecStats, o.threads()), time.Now()
}

// statsNow samples the clock only when collection is enabled.
func statsNow(ws []metrics.ExecStats) time.Time {
	if ws == nil {
		return time.Time{}
	}
	return time.Now()
}

// statsEnd merges the worker slots plus driver-level extras and records
// one aggregate invocation into the collector.
func (o Options) statsEnd(ws []metrics.ExecStats, start time.Time, extra metrics.ExecStats) {
	if o.Stats == nil {
		return
	}
	total := extra
	for i := range ws {
		total = total.Add(ws[i])
	}
	total.Aggregates++
	total.AggNanos += time.Since(start).Nanoseconds()
	o.Stats.Record(total)
}

// busyOnly charges worker w for wall time alone; the counters are the
// kernels' own, or a radix round's analytic charge (rank.go).
func busyOnly(ws []metrics.ExecStats, w int, t0 time.Time) {
	st := &ws[w]
	st.WorkerBusyNanos += time.Since(t0).Nanoseconds()
}
