package metrics

import (
	"sync"
	"testing"
)

// every counter gets a distinct prime so a cross-wired field in
// Record/Snapshot/Add/Sub shows up as a value mismatch, not a
// coincidental equality.
func distinct() ExecStats {
	return ExecStats{
		Scans:              2,
		SegmentsScanned:    3,
		SegmentsPrunedNone: 5,
		SegmentsPrunedAll:  7,
		WordsCompared:      11,
		ScanNanos:          13,
		Aggregates:         17,
		SegmentsAggregated: 19,
		WordsTouched:       23,
		RadixRounds:        29,
		AggNanos:           37,
		WorkerBusyNanos:    41,

		SegmentsCacheServed: 43,
		SegmentsBoundPruned: 47,
		SegmentsIndexServed: 53,
		RangeFringeWords:    59,
		GroupsDiscovered:    61,
		GroupBankWords:      67,
		HashProbes:          71,
		HashGrowths:         73,
		ShardsScanned:       79,
		ShardsPruned:        83,
	}
}

func scale(s ExecStats, n uint64) ExecStats {
	var out ExecStats
	for i := uint64(0); i < n; i++ {
		out = out.Add(s)
	}
	return out
}

func TestCollectorRecordSnapshot(t *testing.T) {
	c := NewCollector()
	c.Record(distinct())
	c.Record(distinct())
	got, want := c.Snapshot(), scale(distinct(), 2)
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	c.Reset()
	if got := c.Snapshot(); got != (ExecStats{}) {
		t.Fatalf("snapshot after reset = %+v, want zero", got)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	a, b := distinct(), scale(distinct(), 3)
	if got := b.Add(a).Sub(a); got != b {
		t.Fatalf("b+a-a = %+v, want %+v", got, b)
	}
	if got := a.Sub(a); got != (ExecStats{}) {
		t.Fatalf("a-a = %+v, want zero", got)
	}
}

func TestDerivedRatios(t *testing.T) {
	s := ExecStats{SegmentsScanned: 25, SegmentsPrunedNone: 60, SegmentsPrunedAll: 15}
	if got := s.SegmentsPruned(); got != 75 {
		t.Fatalf("SegmentsPruned = %d, want 75", got)
	}
	if got := s.SegmentsConsidered(); got != 100 {
		t.Fatalf("SegmentsConsidered = %d, want 100", got)
	}
	if got := s.PruneRatio(); got != 0.75 {
		t.Fatalf("PruneRatio = %v, want 0.75", got)
	}
	if got := (ExecStats{}).PruneRatio(); got != 0 {
		t.Fatalf("empty PruneRatio = %v, want 0", got)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Record(distinct())
	c.Reset()
	if got := c.Snapshot(); got != (ExecStats{}) {
		t.Fatalf("nil snapshot = %+v, want zero", got)
	}
}

// TestCollectorConcurrentStress hammers one collector from many
// goroutines — recorders, snapshot readers, and a resetting-free mix —
// and checks the final totals. Run under -race (the CI Race step does)
// this doubles as the registry's data-race proof.
func TestCollectorConcurrentStress(t *testing.T) {
	const (
		goroutines = 16
		iters      = 2000
	)
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Record(distinct())
			}
		}()
	}
	// Concurrent readers: values are unpredictable mid-flight, but every
	// load must be torn-free and each counter monotonically reasonable.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := c.Snapshot()
				if s.Scans%2 != 0 { // every batch adds 2
					t.Errorf("torn Scans read: %d", s.Scans)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, want := c.Snapshot(), scale(distinct(), goroutines*iters)
	if got != want {
		t.Fatalf("final snapshot = %+v, want %+v", got, want)
	}
}
