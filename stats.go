package bpagg

import (
	"time"

	"bpagg/internal/bitvec"
	"bpagg/internal/metrics"
	"bpagg/internal/scan"
)

// ExecStats is a snapshot of execution counters: scan-side segment
// pruning and words compared, aggregate-side segments and words touched,
// radix rounds, reconstruction fallbacks, and wall/busy timers. See
// DESIGN.md §8 for the exact meaning and increment point of every
// counter. It is a plain value; snapshots from a StatsCollector can be
// diffed with Sub to isolate one operation.
type ExecStats = metrics.ExecStats

// StatsCollector accumulates ExecStats across scans and aggregates. It
// is safe for concurrent use — many queries may share one collector —
// and a nil *StatsCollector is valid everywhere and records nothing.
type StatsCollector = metrics.Collector

// NewStatsCollector returns an empty collector.
func NewStatsCollector() *StatsCollector { return metrics.NewCollector() }

// CollectStats directs execution statistics of the aggregates run with
// this option into c. Collection is off by default; when off, execution
// takes exactly the pre-observability code paths (the disabled-path
// guarantee of DESIGN.md §8).
func CollectStats(c *StatsCollector) ExecOption {
	return func(cfg *execConfig) { cfg.par.Stats = c }
}

// ScanStats is Scan with observability: segments scanned vs zone-pruned,
// packed words compared, and scan wall time are recorded into rec. A nil
// rec collects nothing and keeps the scan off the clock — a plain Scan.
func (c *Column) ScanStats(p Predicate, rec *StatsCollector) *Bitmap {
	var (
		start time.Time
		es    *metrics.ExecStats
	)
	if rec != nil {
		start, es = time.Now(), &metrics.ExecStats{}
	}
	var b *bitvec.Bitmap
	scans := 1
	if p.list != nil {
		// IN-lists run one equality scan per member and union the
		// results (§II-E); each counts.
		b = bitvec.New(c.Len())
		for _, v := range p.list {
			b.Or(c.scanSimple(scan.Predicate{Op: scan.EQ, A: v}, es))
		}
		scans = len(p.list)
	} else {
		b = c.scanSimple(p.p, es)
	}
	if c.nulls != nil {
		b.AndNot(c.nulls) // NULL compares as unknown: never selected
	}
	if rec != nil {
		es.Scans = uint64(scans)
		es.ScanNanos = time.Since(start).Nanoseconds()
		rec.Record(*es)
	}
	return &Bitmap{b: b}
}

// scanSimple runs one simple-predicate scan; a nil es collects nothing.
func (c *Column) scanSimple(p scan.Predicate, es *metrics.ExecStats) *bitvec.Bitmap {
	if c.layout == VBP {
		return scan.VBPStats(c.v, p, es)
	}
	return scan.HBPStats(c.h, p, es)
}

// recordReconstruct charges the collector for an aggregate served by the
// NBP reconstruction baseline: one aggregate invocation that
// materializes every selected row. Used as
// `defer recordReconstruct(rec, eff, time.Now())` so the deferred call
// observes the full reconstruction wall time.
func recordReconstruct(rec *StatsCollector, eff *bitvec.Bitmap, start time.Time) {
	if rec == nil {
		return
	}
	rec.Record(metrics.ExecStats{
		Aggregates:        1,
		ReconstructedRows: uint64(eff.Count()),
		AggNanos:          time.Since(start).Nanoseconds(),
	})
}
