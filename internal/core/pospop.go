package core

import (
	"math/bits"

	"bpagg/internal/bitvec"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Positional-popcount block accumulators (DESIGN.md §14). VBP SUM is a
// positional population count — sum = Σ_p popcount(plane_p & filter) <<
// (k-1-p) — and the kernels here replace the per-word POPCNT of that
// inner product with a Harley–Seal carry-save tree: filter-masked plane
// words buffer up in blocks of posPopBlock segments, each block folds
// through an unrolled word.CSA tree (the CSA8 shape, inlined) into
// persistent bit-sliced counters (ones/twos/fours per plane), and a
// POPCNT is paid only for the weight-8 overflow word of each block plus
// one residual fold per plane at the end. Zero words are
// carry-save no-ops, so partial trailing blocks zero-pad exactly.
//
// The accumulators change only the order in which exact per-plane counts
// are summed, never the counts themselves, so the 128-bit overflow
// contract (SumOverflowPossible, sumCacheExactK) is untouched: checked
// kernels feed the same bSum banks and combine with addShift128 as before.

// posPopBlock is the carry-save block span: how many (segment, filter)
// pairs buffer before each plane folds them through one CSA8 step.
const posPopBlock = 8

// vbpBlockSum accumulates per-plane popcounts of filter-masked segments
// into a caller-owned bSum bank through the carry-save tree. Segments
// arrive via push; finish folds residuals and must run before bSum is
// combined. The flush gather runs over the flat per-plane view so the
// ragged bit-group structure costs no per-block slice setup.
type vbpBlockSum struct {
	k                 int
	ones, twos, fours []uint64  // per-plane carry-save counters
	bSum              []uint64  // caller's per-plane totals
	pl                vbpPlanes // flat plane view, built on first flush
	segs              [posPopBlock]int
	fws               [posPopBlock]uint64
	n                 int
}

func newVBPBlockSum(k int, bSum []uint64) *vbpBlockSum {
	backing := make([]uint64, 3*k)
	return &vbpBlockSum{
		k:    k,
		ones: backing[:k], twos: backing[k : 2*k], fours: backing[2*k:],
		bSum: bSum,
	}
}

// push buffers one live segment's filter word, folding a block when full.
func (a *vbpBlockSum) push(col *vbp.Column, seg int, fw uint64) {
	a.segs[a.n], a.fws[a.n] = seg, fw
	a.n++
	if a.n == posPopBlock {
		a.flush(col)
	}
}

// flush folds the buffered block (zero-padded when partial) into the
// carry-save counters, paying one POPCNT per plane for the eights tier.
// Partial blocks alias their idle lanes to lane 0 with an all-zero filter
// (a carry-save no-op), so the body stays branch-free. The gather runs
// over the flat per-plane view (one multiply-indexed load per lane) with
// the eight lane indices and filters held in locals, feeding a fully
// unrolled CSA tree — no per-group slice setup, which matters when tau
// keeps the bit-groups shallow.
func (a *vbpBlockSum) flush(col *vbp.Column) {
	if a.pl.words == nil {
		a.pl = newVBPPlanes(col)
	}
	for i := a.n; i < posPopBlock; i++ {
		a.segs[i], a.fws[i] = a.segs[0], 0
	}
	g0, g1, g2, g3 := a.segs[0], a.segs[1], a.segs[2], a.segs[3]
	g4, g5, g6, g7 := a.segs[4], a.segs[5], a.segs[6], a.segs[7]
	f0, f1, f2, f3 := a.fws[0], a.fws[1], a.fws[2], a.fws[3]
	f4, f5, f6, f7 := a.fws[4], a.fws[5], a.fws[6], a.fws[7]
	pl := &a.pl
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

// finish folds any partial block plus the residual counters into bSum and
// resets the accumulator.
func (a *vbpBlockSum) finish(col *vbp.Column) {
	if a.n > 0 {
		a.flush(col)
	}
	for p := 0; p < a.k; p++ {
		a.bSum[p] += word.CSAFold(a.ones[p], a.twos[p], a.fours[p])
		a.ones[p], a.twos[p], a.fours[p] = 0, 0, 0
	}
}

// vbpBSumRange fills the per-plane popcount bank for segments
// [segLo, segHi) — the shared inner product of VBPSumRange and
// VBPSumRange128, which differ only in how they combine bSum.
//
// It skips the push/flush buffering entirely: the range is consecutive,
// so full blocks of posPopBlock segments feed the CSA tree directly (a
// zero filter word is a carry-save no-op, so only all-zero blocks are
// skipped), and lane indices advance by the plane stride instead of
// being gathered.
func vbpBSumRange(col *vbp.Column, f *bitvec.Bitmap, bSum []uint64, segLo, segHi int) {
	k := col.K()
	pl := newVBPPlanes(col)
	backing := make([]uint64, 3*k)
	ones, twos, fours := backing[:k], backing[k:2*k], backing[2*k:]
	seg := segLo
	for ; seg+posPopBlock <= segHi; seg += posPopBlock {
		f0, f1, f2, f3 := f.Word(seg), f.Word(seg+1), f.Word(seg+2), f.Word(seg+3)
		f4, f5, f6, f7 := f.Word(seg+4), f.Word(seg+5), f.Word(seg+6), f.Word(seg+7)
		if f0|f1|f2|f3|f4|f5|f6|f7 == 0 {
			continue
		}
		for p := 0; p < k; p++ {
			ws, st, off := pl.words[p], pl.stride[p], pl.off[p]
			i0 := seg*st + off
			i1, i2, i3 := i0+st, i0+2*st, i0+3*st
			i4, i5, i6, i7 := i0+4*st, i0+5*st, i0+6*st, i0+7*st
			w0, w1, w2, w3 := ws[i0]&f0, ws[i1]&f1, ws[i2]&f2, ws[i3]&f3
			w4, w5, w6, w7 := ws[i4]&f4, ws[i5]&f5, ws[i6]&f6, ws[i7]&f7
			o, t, fr := ones[p], twos[p], fours[p]
			var tA, tB, fA, fB, eights uint64
			o, tA = word.CSA(o, w0, w1)
			o, tB = word.CSA(o, w2, w3)
			t, fA = word.CSA(t, tA, tB)
			o, tA = word.CSA(o, w4, w5)
			o, tB = word.CSA(o, w6, w7)
			t, fB = word.CSA(t, tA, tB)
			fr, eights = word.CSA(fr, fA, fB)
			ones[p], twos[p], fours[p] = o, t, fr
			if eights != 0 {
				bSum[p] += uint64(bits.OnesCount64(eights)) << 3
			}
		}
	}
	for ; seg < segHi; seg++ {
		fw := f.Word(seg)
		if fw == 0 {
			continue
		}
		for p := 0; p < k; p++ {
			bSum[p] += uint64(bits.OnesCount64(pl.word(p, seg) & fw))
		}
	}
	for p := 0; p < k; p++ {
		bSum[p] += word.CSAFold(ones[p], twos[p], fours[p])
	}
}

// vbpRunSum is the grouped-bank variant of vbpBlockSum: it carry-saves
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
