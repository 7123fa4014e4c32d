package parallel

import (
	"time"

	"bpagg/internal/core"
	"bpagg/internal/hbp"
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
// the kernels themselves (core.FusedStats), or for a radix descent by the
// analytic helpers in package core; their per-layout definitions are
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

// vbpCollectRank charges worker w for one VBP radix round over
// segments [lo, hi): each segment with live candidates is read once by
// the count pass and once by the refine pass (one bit-position word
// each).
func vbpCollectRank(ws []metrics.ExecStats, w int, v []uint64, lo, hi int, t0 time.Time) {
	st := &ws[w]
	st.WordsTouched += 2 * core.VBPLiveCandidates(v, lo, hi)
	st.WorkerBusyNanos += time.Since(t0).Nanoseconds()
}

// hbpCollectRank charges worker w for one HBP radix round over
// segments [lo, hi). factor is 2 when the round refines after the
// histogram (one word-group word per pass) and 1 on the final round,
// which stops after the histogram.
func hbpCollectRank(ws []metrics.ExecStats, w int, col *hbp.Column, v []uint64, factor uint64, lo, hi int, t0 time.Time) {
	st := &ws[w]
	st.WordsTouched += factor * core.HBPLiveCandidateSubs(col, v, lo, hi)
	st.WorkerBusyNanos += time.Since(t0).Nanoseconds()
}

// busyOnly charges worker w for wall time alone; used by passes whose
// word counts are charged elsewhere (e.g. refine, already counted by
// the round's histogram/count stage).
func busyOnly(ws []metrics.ExecStats, w int, t0 time.Time) {
	st := &ws[w]
	st.WorkerBusyNanos += time.Since(t0).Nanoseconds()
}
