package core

import (
	"math/bits"

	"bpagg/internal/word"
)

// Positional-popcount block accumulators (DESIGN.md §14). VBP SUM is a
// positional population count — sum = Σ_p popcount(plane_p & filter) <<
// (k-1-p) — and its kernels replace the per-word POPCNT of that inner
// product with a Harley–Seal carry-save tree: filter-masked plane words
// come in blocks of posPopBlock segments, each block folds through an
// unrolled word.CSA tree (the CSA8 shape, inlined) into persistent
// bit-sliced counters (ones/twos/fours per plane), and a POPCNT is paid
// only for the weight-8 overflow word of each block plus one residual fold
// per plane at the end. Zero words are carry-save no-ops, so a dead lane
// costs nothing but its load.
//
// The accumulators change only the order in which exact per-plane counts
// are summed, never the counts themselves, so the 128-bit overflow
// contract (SumOverflowPossible, SumCacheExactK) is untouched.

// posPopBlock is the carry-save block span: how many segments each plane
// folds through one CSA8 step. It is also how many windows a kernel reads
// from its Filter per call.
const posPopBlock = 8

// vbpRunSum is the grouped-bank twin of VBPSumCount's block: it carry-saves
// runs of segments that all belong to ONE group (the dominant shape in
// sorted and hash-partitioned data, where most segments have a single
// live group), draining per-plane counts to a sink callback whenever the
// group changes. Multi-group segments don't fit per-group carry state —
// callers drain and fall back to the per-word loop for those. Plane reads
// go through the vbpPlanes view shared with the partition kernels.
type vbpRunSum struct {
	k                       int
	gi                      int // owning group of the buffered run; -1 idle
	ones, twos, fours, bSum []uint64
	segs                    [posPopBlock]int
	fws                     [posPopBlock]uint64
	n                       int
}

func newVBPRunSum(k int) *vbpRunSum {
	backing := make([]uint64, 4*k)
	return &vbpRunSum{
		k: k, gi: -1,
		ones: backing[:k], twos: backing[k : 2*k],
		fours: backing[2*k : 3*k], bSum: backing[3*k:],
	}
}

// push buffers one (segment, selection word) pair for group gi, draining
// the previous group's counts first when the group changes.
func (a *vbpRunSum) push(pl *vbpPlanes, gi, seg int, fw uint64, sink func(gi, p int, c uint64)) {
	if gi != a.gi {
		a.drain(pl, sink)
		a.gi = gi
	}
	a.segs[a.n], a.fws[a.n] = seg, fw
	a.n++
	if a.n == posPopBlock {
		a.flush(pl)
	}
}

func (a *vbpRunSum) flush(pl *vbpPlanes) {
	for i := a.n; i < posPopBlock; i++ {
		a.segs[i], a.fws[i] = a.segs[0], 0
	}
	g0, g1, g2, g3 := a.segs[0], a.segs[1], a.segs[2], a.segs[3]
	g4, g5, g6, g7 := a.segs[4], a.segs[5], a.segs[6], a.segs[7]
	f0, f1, f2, f3 := a.fws[0], a.fws[1], a.fws[2], a.fws[3]
	f4, f5, f6, f7 := a.fws[4], a.fws[5], a.fws[6], a.fws[7]
	for p := 0; p < a.k; p++ {
		ws, st, off := pl.words[p], pl.stride[p], pl.off[p]
		w0, w1 := ws[g0*st+off]&f0, ws[g1*st+off]&f1
		w2, w3 := ws[g2*st+off]&f2, ws[g3*st+off]&f3
		w4, w5 := ws[g4*st+off]&f4, ws[g5*st+off]&f5
		w6, w7 := ws[g6*st+off]&f6, ws[g7*st+off]&f7
		o, t, fr := a.ones[p], a.twos[p], a.fours[p]
		var tA, tB, fA, fB, eights uint64
		o, tA = word.CSA(o, w0, w1)
		o, tB = word.CSA(o, w2, w3)
		t, fA = word.CSA(t, tA, tB)
		o, tA = word.CSA(o, w4, w5)
		o, tB = word.CSA(o, w6, w7)
		t, fB = word.CSA(t, tA, tB)
		fr, eights = word.CSA(fr, fA, fB)
		a.ones[p], a.twos[p], a.fours[p] = o, t, fr
		if eights != 0 {
			a.bSum[p] += uint64(bits.OnesCount64(eights)) << 3
		}
	}
	a.n = 0
}

// drain flushes the buffered run and hands each plane's nonzero count to
// sink(gi, p, count), then goes idle. Safe to call when already idle.
func (a *vbpRunSum) drain(pl *vbpPlanes, sink func(gi, p int, c uint64)) {
	if a.gi < 0 {
		return
	}
	if a.n > 0 {
		a.flush(pl)
	}
	for p := 0; p < a.k; p++ {
		if c := a.bSum[p] + word.CSAFold(a.ones[p], a.twos[p], a.fours[p]); c != 0 {
			sink(a.gi, p, c)
		}
		a.ones[p], a.twos[p], a.fours[p], a.bSum[p] = 0, 0, 0, 0
	}
	a.gi = -1
}
