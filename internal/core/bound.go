package core

import "bpagg/internal/word"

// Bound pruning for MIN/MAX (DESIGN.md §3). A fold runs in prune blocks of
// PruneBlock windows, each folded into a block-local temp that is merged
// into the caller's temp when the block ends. Inside a block the fold
// keeps a scalar threshold: a value the block has already selected. A
// window whose sound zone (ZoneRange's bounds, read from Zones) cannot
// beat it — MIN: zone minimum ≥ threshold; MAX: zone maximum ≤ threshold
// — cannot change the answer, so it is skipped before its filter word is
// read: no predicate runs, no bitmap word is read and nothing folds. The threshold restarts at every
// block boundary (seg % PruneBlock == 0) and the drivers partition whole
// blocks, so what is skipped depends on the data alone, not on the thread
// count.

// PruneBlock is the number of windows that share one pruning threshold.
const PruneBlock = 1024

// boundRefresh is the first gap, in improving windows, between two reads
// of the threshold from the block temp; each read doubles the gap. A stale
// threshold is still a selected value, so it only prunes less, and the
// first reads come while the block's values are still falling fast. A
// descending MIN, where nothing prunes, improves on every window: it pays
// for about ten reads per block, not one per window.
const boundRefresh = 4

// bound is a fold's view of the aggregated column's zones: their minima
// for MIN, their maxima for MAX, compared in key space (v ^ flip, with
// flip all ones for MAX, which reverses the order), so a zone z cannot
// beat a threshold of key t when z^flip >= t.
type bound struct {
	zs   []uint64
	flip uint64
}

// newBound is the bound of a fold over a column with zones zMin/zMax; a
// window past their end has no zone and is never skipped.
func newBound(zMin, zMax []uint64, wantMin bool) bound {
	if wantMin {
		return bound{zs: zMin}
	}
	return bound{zs: zMax, flip: ^uint64(0)}
}

// thr is one prune block's threshold: a plain value, so the fold keeps it
// in registers.
type thr struct {
	key          uint64 // the threshold ^ flip
	have         bool   // key holds a selected value
	pending, gap int    // improving windows since the last read, and until the next
}

// beaten reports that window seg's zone cannot improve on t.
func (b bound) beaten(seg int, t thr) bool {
	return t.have && seg < len(b.zs) && b.zs[seg]^b.flip >= t.key
}

// offer tightens t to the selected value v when v is better.
func (b bound) offer(t thr, v uint64) thr {
	if k := v ^ b.flip; !t.have || k < t.key {
		t.key, t.have = k, true
	}
	return t
}

// due counts one improving window and reports whether the threshold
// should be read from the block temp now.
func (t thr) due() (thr, bool) {
	if t.pending++; t.have && t.pending < t.gap {
		return t, false
	}
	t.pending, t.gap = 0, max(2*t.gap, boundRefresh)
	return t, true
}

// vbpSlotBest returns the least (wantMin) or greatest value held by the 64
// slots of a VBP temp, most significant bit first: at each position the
// candidate slots narrow to those holding the better bit, when any does.
// It is branch-free: the bits are the temp's, not predictable.
func vbpSlotBest(temp []uint64, wantMin bool) uint64 {
	flip := uint64(0)
	if !wantMin {
		flip = ^uint64(0)
	}
	cand := ^uint64(0)
	var v uint64
	for _, w := range temp {
		c := cand &^ (w ^ flip) // candidates holding the better bit
		nz := (c | -c) >> 63    // 1 when there are any
		cand = c | cand&(nz-1)  // narrow to them, or keep all
		v = v<<1 | (nz ^ 1)     // the bit, in flipped order
	}
	return (v ^ flip) & word.LowMask(len(temp))
}

// hbpSlotBest is vbpSlotBest for an HBP temp sub-segment of b group words
// holding c tau-bit fields each, reconstructed field by field; the flip
// makes MAX a min, which compiles without a branch.
func hbpSlotBest(temp []uint64, tau, b, c int, wantMin bool) uint64 {
	flip := uint64(0)
	if !wantMin {
		flip = ^uint64(0)
	}
	best := ^uint64(0)
	for s := 0; s < c; s++ {
		best = min(best, reconstructHBPSlot(temp, tau, b, s)^flip)
	}
	return best ^ flip
}
