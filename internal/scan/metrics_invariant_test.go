package scan

import (
	"fmt"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Metric-asserted zone-map invariants (paper §II-E): on sorted data a
// range scan must prune at least 80% of the segments, and pruning must
// be invisible in the output — the bitmap is bit-identical to the one a
// pruning-disabled scan (a FromWords column, which carries no zones)
// produces over the same words.

// vbpNoZones clones a column's words into a zone-free column.
func vbpNoZones(t *testing.T, col *vbp.Column) *vbp.Column {
	t.Helper()
	groups := make([][]uint64, col.NumGroups())
	for g := range groups {
		groups[g] = col.Groups()[g].Words
	}
	out, err := vbp.FromWords(col.K(), col.Tau(), col.Len(), groups)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hbpNoZones clones a column's words into a zone-free column.
func hbpNoZones(t *testing.T, col *hbp.Column) *hbp.Column {
	t.Helper()
	groups := make([][]uint64, col.NumGroups())
	for g := range groups {
		groups[g] = col.GroupWords(g)
	}
	out, err := hbp.FromWords(col.K(), col.Tau(), col.Len(), groups)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestZoneMapPruningInvariant(t *testing.T) {
	// Sorted data: vals[i] grows by 0..3 per step, so segments hold tight
	// disjoint ranges and range predicates prune nearly everything.
	const n, k = 100 * 64, 16
	vals := make([]uint64, n)
	var v uint64
	for i := range vals {
		v += uint64(i*2654435761) % 4
		vals[i] = v & word.LowMask(k)
	}
	max := vals[n-1]

	vcol := vbp.Pack(vals, k, 4)
	hcol := hbp.Pack(vals, k, hbp.DefaultTau(k))
	vplain := vbpNoZones(t, vcol)
	hplain := hbpNoZones(t, hcol)

	preds := []Predicate{
		{Op: LT, A: vals[n/16]},
		{Op: GE, A: vals[15*n/16]},
		{Op: Between, A: vals[n/2], B: vals[n/2+n/16]},
		{Op: GT, A: max},
	}
	for _, p := range preds {
		p := p
		t.Run(fmt.Sprintf("%s_%d", p.Op, p.A), func(t *testing.T) {
			var zoned, plain metrics.ExecStats
			vb := VBPStats(vcol, p, &zoned)
			vbPlain := VBPStats(vplain, p, &plain)
			checkPruning(t, "VBP", zoned, plain)
			if vb.Len() != vbPlain.Len() {
				t.Fatalf("VBP lengths differ: %d vs %d", vb.Len(), vbPlain.Len())
			}
			for i, w := range vb.Words() {
				if w != vbPlain.Word(i) {
					t.Fatalf("VBP bitmap word %d differs: pruned %#x, plain %#x", i, w, vbPlain.Word(i))
				}
			}

			zoned, plain = metrics.ExecStats{}, metrics.ExecStats{}
			hb := HBPStats(hcol, p, &zoned)
			hbPlain := HBPStats(hplain, p, &plain)
			checkPruning(t, "HBP", zoned, plain)
			if hb.Len() != hbPlain.Len() {
				t.Fatalf("HBP lengths differ: %d vs %d", hb.Len(), hbPlain.Len())
			}
			for i, w := range hb.Words() {
				if w != hbPlain.Word(i) {
					t.Fatalf("HBP bitmap word %d differs: pruned %#x, plain %#x", i, w, hbPlain.Word(i))
				}
			}
		})
	}
}

// TestStatsCollectorIsObservationOnly pins the one-loop guarantee
// (DESIGN.md §8): a scan with a collector and a scan without produce the
// same filter, and the collector accounts for every segment.
func TestStatsCollectorIsObservationOnly(t *testing.T) {
	const n, k = 777, 13
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i*i+3*i) & word.LowMask(k)
	}
	vcol := vbp.Pack(vals, k, 4)
	hcol := hbp.Pack(vals, k, hbp.DefaultTau(k))
	for _, p := range []Predicate{
		{Op: LT, A: 1000}, {Op: GE, A: 4000}, {Op: EQ, A: vals[100]},
		{Op: NE, A: vals[100]}, {Op: Between, A: 500, B: 6000},
	} {
		var ves, hes metrics.ExecStats
		for _, c := range []struct {
			layout         string
			plain, counted *bitvec.Bitmap
			es             *metrics.ExecStats
			nseg           int
		}{
			{"VBP", VBPStats(vcol, p, nil), VBPStats(vcol, p, &ves), &ves, vcol.NumSegments()},
			{"HBP", HBPStats(hcol, p, nil), HBPStats(hcol, p, &hes), &hes, hcol.NumSegments()},
		} {
			for i := range c.plain.Words() {
				if c.plain.Word(i) != c.counted.Word(i) {
					t.Fatalf("%s %s %d: word %d differs with a collector", c.layout, p.Op, p.A, i)
				}
			}
			if c.es.SegmentsConsidered() != uint64(c.nseg) {
				t.Errorf("%s %s %d: considered %d of %d segments", c.layout, p.Op, p.A,
					c.es.SegmentsConsidered(), c.nseg)
			}
		}
	}
}

// checkPruning asserts the §II-E contract on one zoned-vs-plain pair:
// ≥80% of segments pruned with zones, zero without, and strictly fewer
// words compared on the pruned side.
func checkPruning(t *testing.T, layout string, zoned, plain metrics.ExecStats) {
	t.Helper()
	if ratio := zoned.PruneRatio(); ratio < 0.80 {
		t.Errorf("%s: pruned %.1f%% of segments (%d/%d), want >= 80%%",
			layout, 100*ratio, zoned.SegmentsPruned(), zoned.SegmentsConsidered())
	}
	if plain.SegmentsPrunedAll != 0 || plain.SegmentsPrunedNone != 0 {
		t.Errorf("%s: zone-free column pruned segments (all=%d none=%d)",
			layout, plain.SegmentsPrunedAll, plain.SegmentsPrunedNone)
	}
	if zoned.SegmentsConsidered() != plain.SegmentsConsidered() {
		t.Errorf("%s: considered %d segments zoned vs %d plain",
			layout, zoned.SegmentsConsidered(), plain.SegmentsConsidered())
	}
	if zoned.WordsCompared >= plain.WordsCompared {
		t.Errorf("%s: pruning did not reduce word comparisons: %d zoned vs %d plain",
			layout, zoned.WordsCompared, plain.WordsCompared)
	}
}
