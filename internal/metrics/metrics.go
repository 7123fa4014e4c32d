// Package metrics is the execution-observability substrate of the engine:
// a counter registry that turns the paper's quantitative claims (zone-map
// pruning skips segments, bit-parallel aggregation touches ⌈k/64⌉ words
// per 64 values) into numbers a query can report and a test can assert.
//
// The design splits hot-path accumulation from cross-query aggregation:
//
//   - ExecStats is a plain value of counters. Kernels and drivers
//     accumulate into a local ExecStats (or local integers merged into
//     one at the end), so the hot loops never touch shared memory.
//   - Collector is the shared, concurrency-safe registry: one atomic
//     per counter, fed whole ExecStats batches via Record. A nil
//     *Collector is valid everywhere and records nothing — the
//     disabled path is a nil check, not a lock.
//
// Collection is opt-in per operation. When no collector is supplied the
// drivers run the exact same code paths as before this package existed;
// the disabled-path guarantee is stated in DESIGN.md §8 and enforced by
// a benchmark guard.
package metrics

import (
	"sync/atomic"
	"time"
)

// ExecStats is a snapshot of execution counters for one operation, one
// query, or one collector lifetime. The zero value is empty and ready to
// accumulate into.
//
// Scan counters (incremented by the predicate scans):
//
//   - Scans: bit-parallel scan passes executed. An IN-list of n members
//     counts n (one equality scan per member, paper §II-E); a GROUP BY
//     partition counts 1 whatever its groups, grouping columns or base
//     selection.
//   - SegmentsScanned: segments whose packed words were actually
//     compared (zone check inconclusive).
//   - SegmentsPrunedNone: segments skipped because the zone map proved
//     no value can match.
//   - SegmentsPrunedAll: segments short-circuited because the zone map
//     proved every value matches.
//   - WordsCompared: packed column words examined by scan comparisons,
//     net of early stops — the scan-side cost model of §II.
//
// Aggregate counters (incremented by the aggregation drivers):
//
//   - Aggregates: driver invocations (one per SUM/MIN/MAX/MEDIAN/... call
//     that reaches a kernel).
//   - SegmentsAggregated: segments with at least one selected tuple that
//     a kernel processed.
//   - WordsTouched: packed column words a kernel had to read. This is
//     defined analytically from the layout (see DESIGN.md §8), so it is
//     independent of thread count.
//   - RadixRounds: rendezvous rounds of the MEDIAN/rank radix descent
//     (VBP: one per bit position; HBP: one per bit-group chunk).
//   - SegmentsCacheServed: all-match segments the fused scan→aggregate
//     path answered from the per-segment aggregate caches without
//     touching a packed word (they contribute nothing to WordsTouched).
//   - SegmentsBoundPruned: segments a MIN/MAX kernel skipped, before
//     reading their filter word, because the aggregated column's zone
//     could not beat the extreme its prune block had already selected
//     (DESIGN.md §8). Blocks are fixed windows of the column, so the
//     count does not depend on thread count.
//   - SegmentsIndexServed: full segments a range/window aggregate
//     answered from the prefix-sum range index (one prefix difference or
//     sparse-table lookup covers any number of them) without touching a
//     packed word.
//   - RangeFringeWords: packed words touched by the masked fringe
//     kernels on a range's two partial boundary segments — the entire
//     word cost of an index-served range aggregate.
//   - GroupsDiscovered: distinct group keys found by a GROUP BY
//     partition (DESIGN.md §12).
//   - GroupBankWords: (group, window) selection words in a GROUP BY
//     partition's run list — its memory footprint.
//   - HashProbes: table position inspections by a GROUP BY partition's
//     hashed key index (per-worker open-addressing tables; a packed key
//     of ≤ 10 bits is direct-mapped and probes nothing). Probe order
//     depends on which keys each worker sees, so unlike the analytic
//     counters this one may vary with thread count.
//   - HashGrowths: capacity doublings of those tables.
//
// Shard counters (incremented by the sharded-table fan-out, once per
// fan-out over the store):
//
//   - ShardsScanned: shards whose columns a fan-out actually queried
//     (shard-catalog check inconclusive).
//   - ShardsPruned: shards skipped because the shard catalog's min/max
//     bounds proved no row can match the predicates — none of the
//     shard's packed words are touched.
//
// Timers (nanoseconds, summed):
//
//   - ScanNanos: wall time of scan passes.
//   - AggNanos: wall time of aggregate driver calls.
//   - WorkerBusyNanos: CPU-side busy time summed over workers; exceeds
//     AggNanos when multiple workers overlap.
type ExecStats struct {
	Scans              uint64
	SegmentsScanned    uint64
	SegmentsPrunedNone uint64
	SegmentsPrunedAll  uint64
	WordsCompared      uint64
	ScanNanos          int64

	Aggregates          uint64
	SegmentsAggregated  uint64
	WordsTouched        uint64
	RadixRounds         uint64
	SegmentsCacheServed uint64
	SegmentsBoundPruned uint64
	SegmentsIndexServed uint64
	RangeFringeWords    uint64
	GroupsDiscovered    uint64
	GroupBankWords      uint64
	HashProbes          uint64
	HashGrowths         uint64
	AggNanos            int64
	WorkerBusyNanos     int64

	ShardsScanned uint64
	ShardsPruned  uint64
}

// Add returns the field-wise sum s + o.
func (s ExecStats) Add(o ExecStats) ExecStats {
	s.Scans += o.Scans
	s.SegmentsScanned += o.SegmentsScanned
	s.SegmentsPrunedNone += o.SegmentsPrunedNone
	s.SegmentsPrunedAll += o.SegmentsPrunedAll
	s.WordsCompared += o.WordsCompared
	s.ScanNanos += o.ScanNanos
	s.Aggregates += o.Aggregates
	s.SegmentsAggregated += o.SegmentsAggregated
	s.WordsTouched += o.WordsTouched
	s.RadixRounds += o.RadixRounds
	s.SegmentsCacheServed += o.SegmentsCacheServed
	s.SegmentsBoundPruned += o.SegmentsBoundPruned
	s.SegmentsIndexServed += o.SegmentsIndexServed
	s.RangeFringeWords += o.RangeFringeWords
	s.GroupsDiscovered += o.GroupsDiscovered
	s.GroupBankWords += o.GroupBankWords
	s.HashProbes += o.HashProbes
	s.HashGrowths += o.HashGrowths
	s.AggNanos += o.AggNanos
	s.WorkerBusyNanos += o.WorkerBusyNanos
	s.ShardsScanned += o.ShardsScanned
	s.ShardsPruned += o.ShardsPruned
	return s
}

// Sub returns the field-wise difference s - o. It is the snapshot-diff
// primitive: capture a collector before and after an operation and
// subtract to isolate that operation's counters.
func (s ExecStats) Sub(o ExecStats) ExecStats {
	s.Scans -= o.Scans
	s.SegmentsScanned -= o.SegmentsScanned
	s.SegmentsPrunedNone -= o.SegmentsPrunedNone
	s.SegmentsPrunedAll -= o.SegmentsPrunedAll
	s.WordsCompared -= o.WordsCompared
	s.ScanNanos -= o.ScanNanos
	s.Aggregates -= o.Aggregates
	s.SegmentsAggregated -= o.SegmentsAggregated
	s.WordsTouched -= o.WordsTouched
	s.RadixRounds -= o.RadixRounds
	s.SegmentsCacheServed -= o.SegmentsCacheServed
	s.SegmentsBoundPruned -= o.SegmentsBoundPruned
	s.SegmentsIndexServed -= o.SegmentsIndexServed
	s.RangeFringeWords -= o.RangeFringeWords
	s.GroupsDiscovered -= o.GroupsDiscovered
	s.GroupBankWords -= o.GroupBankWords
	s.HashProbes -= o.HashProbes
	s.HashGrowths -= o.HashGrowths
	s.AggNanos -= o.AggNanos
	s.WorkerBusyNanos -= o.WorkerBusyNanos
	s.ShardsScanned -= o.ShardsScanned
	s.ShardsPruned -= o.ShardsPruned
	return s
}

// SegmentsPruned returns the total segments decided by the zone map
// alone (none-match plus all-match).
func (s ExecStats) SegmentsPruned() uint64 {
	return s.SegmentsPrunedNone + s.SegmentsPrunedAll
}

// SegmentsConsidered returns the total segments a scan looked at, pruned
// or not.
func (s ExecStats) SegmentsConsidered() uint64 {
	return s.SegmentsScanned + s.SegmentsPruned()
}

// PruneRatio returns the fraction of considered segments the zone map
// pruned, in [0, 1]; 0 when nothing was scanned.
func (s ExecStats) PruneRatio() float64 {
	total := s.SegmentsConsidered()
	if total == 0 {
		return 0
	}
	return float64(s.SegmentsPruned()) / float64(total)
}

// ScanTime returns ScanNanos as a duration.
func (s ExecStats) ScanTime() time.Duration { return time.Duration(s.ScanNanos) }

// AggTime returns AggNanos as a duration.
func (s ExecStats) AggTime() time.Duration { return time.Duration(s.AggNanos) }

// WorkerBusy returns WorkerBusyNanos as a duration.
func (s ExecStats) WorkerBusy() time.Duration { return time.Duration(s.WorkerBusyNanos) }

// Collector accumulates ExecStats batches from concurrent operations.
// All methods are safe for concurrent use, and all are nil-safe: a nil
// *Collector records nothing and snapshots as zero, so call sites need
// no enabled/disabled branching beyond passing nil.
type Collector struct {
	scans              atomic.Uint64
	segmentsScanned    atomic.Uint64
	segmentsPrunedNone atomic.Uint64
	segmentsPrunedAll  atomic.Uint64
	wordsCompared      atomic.Uint64
	scanNanos          atomic.Int64

	aggregates          atomic.Uint64
	segmentsAggregated  atomic.Uint64
	wordsTouched        atomic.Uint64
	radixRounds         atomic.Uint64
	segmentsCacheServed atomic.Uint64
	segmentsBoundPruned atomic.Uint64
	segmentsIndexServed atomic.Uint64
	rangeFringeWords    atomic.Uint64
	groupsDiscovered    atomic.Uint64
	groupBankWords      atomic.Uint64
	hashProbes          atomic.Uint64
	hashGrowths         atomic.Uint64
	aggNanos            atomic.Int64
	workerBusyNanos     atomic.Int64

	shardsScanned atomic.Uint64
	shardsPruned  atomic.Uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record adds one ExecStats batch to the collector. Batching keeps the
// atomic traffic at one add per counter per operation rather than per
// segment.
func (c *Collector) Record(s ExecStats) {
	if c == nil {
		return
	}
	if s.Scans != 0 {
		c.scans.Add(s.Scans)
	}
	if s.SegmentsScanned != 0 {
		c.segmentsScanned.Add(s.SegmentsScanned)
	}
	if s.SegmentsPrunedNone != 0 {
		c.segmentsPrunedNone.Add(s.SegmentsPrunedNone)
	}
	if s.SegmentsPrunedAll != 0 {
		c.segmentsPrunedAll.Add(s.SegmentsPrunedAll)
	}
	if s.WordsCompared != 0 {
		c.wordsCompared.Add(s.WordsCompared)
	}
	if s.ScanNanos != 0 {
		c.scanNanos.Add(s.ScanNanos)
	}
	if s.Aggregates != 0 {
		c.aggregates.Add(s.Aggregates)
	}
	if s.SegmentsAggregated != 0 {
		c.segmentsAggregated.Add(s.SegmentsAggregated)
	}
	if s.WordsTouched != 0 {
		c.wordsTouched.Add(s.WordsTouched)
	}
	if s.RadixRounds != 0 {
		c.radixRounds.Add(s.RadixRounds)
	}
	if s.SegmentsCacheServed != 0 {
		c.segmentsCacheServed.Add(s.SegmentsCacheServed)
	}
	if s.SegmentsBoundPruned != 0 {
		c.segmentsBoundPruned.Add(s.SegmentsBoundPruned)
	}
	if s.SegmentsIndexServed != 0 {
		c.segmentsIndexServed.Add(s.SegmentsIndexServed)
	}
	if s.RangeFringeWords != 0 {
		c.rangeFringeWords.Add(s.RangeFringeWords)
	}
	if s.GroupsDiscovered != 0 {
		c.groupsDiscovered.Add(s.GroupsDiscovered)
	}
	if s.GroupBankWords != 0 {
		c.groupBankWords.Add(s.GroupBankWords)
	}
	if s.HashProbes != 0 {
		c.hashProbes.Add(s.HashProbes)
	}
	if s.HashGrowths != 0 {
		c.hashGrowths.Add(s.HashGrowths)
	}
	if s.AggNanos != 0 {
		c.aggNanos.Add(s.AggNanos)
	}
	if s.WorkerBusyNanos != 0 {
		c.workerBusyNanos.Add(s.WorkerBusyNanos)
	}
	if s.ShardsScanned != 0 {
		c.shardsScanned.Add(s.ShardsScanned)
	}
	if s.ShardsPruned != 0 {
		c.shardsPruned.Add(s.ShardsPruned)
	}
}

// Snapshot returns the counters accumulated so far. Each counter is read
// atomically; a snapshot taken concurrently with Record calls may split
// a batch, but a snapshot taken after all recording operations complete
// is exact.
func (c *Collector) Snapshot() ExecStats {
	if c == nil {
		return ExecStats{}
	}
	return ExecStats{
		Scans:               c.scans.Load(),
		SegmentsScanned:     c.segmentsScanned.Load(),
		SegmentsPrunedNone:  c.segmentsPrunedNone.Load(),
		SegmentsPrunedAll:   c.segmentsPrunedAll.Load(),
		WordsCompared:       c.wordsCompared.Load(),
		ScanNanos:           c.scanNanos.Load(),
		Aggregates:          c.aggregates.Load(),
		SegmentsAggregated:  c.segmentsAggregated.Load(),
		WordsTouched:        c.wordsTouched.Load(),
		RadixRounds:         c.radixRounds.Load(),
		SegmentsCacheServed: c.segmentsCacheServed.Load(),
		SegmentsBoundPruned: c.segmentsBoundPruned.Load(),
		SegmentsIndexServed: c.segmentsIndexServed.Load(),
		RangeFringeWords:    c.rangeFringeWords.Load(),
		GroupsDiscovered:    c.groupsDiscovered.Load(),
		GroupBankWords:      c.groupBankWords.Load(),
		HashProbes:          c.hashProbes.Load(),
		HashGrowths:         c.hashGrowths.Load(),
		AggNanos:            c.aggNanos.Load(),
		WorkerBusyNanos:     c.workerBusyNanos.Load(),
		ShardsScanned:       c.shardsScanned.Load(),
		ShardsPruned:        c.shardsPruned.Load(),
	}
}

// Reset zeroes every counter. Concurrent Record calls may land before or
// after the reset per field; reset only at operation boundaries.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.scans.Store(0)
	c.segmentsScanned.Store(0)
	c.segmentsPrunedNone.Store(0)
	c.segmentsPrunedAll.Store(0)
	c.wordsCompared.Store(0)
	c.scanNanos.Store(0)
	c.aggregates.Store(0)
	c.segmentsAggregated.Store(0)
	c.wordsTouched.Store(0)
	c.radixRounds.Store(0)
	c.segmentsCacheServed.Store(0)
	c.segmentsBoundPruned.Store(0)
	c.segmentsIndexServed.Store(0)
	c.rangeFringeWords.Store(0)
	c.groupsDiscovered.Store(0)
	c.groupBankWords.Store(0)
	c.hashProbes.Store(0)
	c.hashGrowths.Store(0)
	c.aggNanos.Store(0)
	c.workerBusyNanos.Store(0)
	c.shardsScanned.Store(0)
	c.shardsPruned.Store(0)
}
