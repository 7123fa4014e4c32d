package scan

import (
	"bpagg/internal/bitvec"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
)

// vbpPred is a predicate compiled against a VBP column: the one segment
// body (Eval) behind the two-phase scan, BETWEEN and the fused window
// path. It is read-only after construction.
type vbpPred struct {
	col    *vbp.Column
	p      Predicate
	lanes  lanes
	invert uint64   // all-ones when the filter word is the lanes' complement
	a, b   []uint64 // constant bit lanes of p.A and (Between) p.B
}

func compileVBP(col *vbp.Column, p Predicate) *vbpPred {
	p.check(col.K())
	w := &vbpPred{col: col, p: p, a: constLanesVBP(p.A, col.K())}
	var invert bool
	if w.lanes, invert = p.Op.plan(); invert {
		w.invert = ^uint64(0)
	}
	if w.lanes == lanesBetween {
		w.b = constLanesVBP(p.B, col.K())
	}
	return w
}

// NewVBPWindowPred returns the window evaluator for p over col. Like the
// scans, it panics when the operator is unknown or the predicate's
// constants do not fit in k bits.
func NewVBPWindowPred(col *vbp.Column, p Predicate) WindowPred { return compileVBP(col, p) }

func (w *vbpPred) WindowBits() int { return vbp.SegBits }
func (w *vbpPred) NumWindows() int { return w.col.NumSegments() }

func (w *vbpPred) Decide(win int) (none, all, ok bool) {
	return w.p.decide(w.col.ZoneRange(win))
}

// Eval compares segment win bit position by bit position (most
// significant first), word-group by word-group: lanes still equal so far
// are decided by the first differing bit, and the segment is abandoned
// once every lane is decided (eq == 0) — the paper's §II-A early stop,
// which the word-group layout turns into skipped cache lines. BETWEEN
// runs two eq chains (against A and against B) and stops when both are
// empty.
func (w *vbpPred) Eval(win int) (fw, words uint64) {
	groups := w.col.Groups()
	eq, eqB := ^uint64(0), uint64(0)
	if w.lanes == lanesBetween {
		eqB = eq
	}
	for g := range groups {
		gr := &groups[g]
		x := gr.Words[win*gr.Bits:][:gr.Bits]
		a := w.a[gr.StartBit:][:gr.Bits]
		switch w.lanes {
		case lanesLT:
			fw, eq = stageLT(fw, eq, x, a)
		case lanesGT:
			fw, eq = stageGT(fw, eq, x, a)
		case lanesEQ:
			for i, xw := range x {
				eq &^= xw ^ a[i]
			}
			fw = eq
		default:
			fw, eq = stageLT(fw, eq, x, a)
			fw, eqB = stageGT(fw, eqB, x, w.b[gr.StartBit:])
		}
		words += uint64(gr.Bits)
		if eq|eqB == 0 {
			break
		}
	}
	return fw ^ w.invert, words
}

// stageLT folds the words x of consecutive bit positions into the lt and
// eq lanes against y (constant lanes, or a second segment's words): a
// lane still equal on all more significant bits is decided less-than by
// a position where x has 0 and y has 1.
func stageLT(lt, eq uint64, x, y []uint64) (uint64, uint64) {
	y = y[:len(x)]
	for i, xw := range x {
		lt |= eq & y[i] &^ xw
		eq &^= xw ^ y[i]
	}
	return lt, eq
}

// stageGT is stageLT for the gt lanes: x has 1 where y has 0.
func stageGT(gt, eq uint64, x, y []uint64) (uint64, uint64) {
	y = y[:len(x)]
	for i, xw := range x {
		gt |= eq & xw &^ y[i]
		eq &^= xw ^ y[i]
	}
	return gt, eq
}

// VBPStats evaluates p over a VBP column and returns the dense filter
// bitmap. When es is non-nil the scan also reports segments scanned vs
// zone-pruned and the packed words actually compared (net of early
// stops). The counters always run on function-local integers; a nil es
// costs one branch at the end, so there is no uninstrumented twin.
func VBPStats(col *vbp.Column, p Predicate, es *metrics.ExecStats) *bitvec.Bitmap {
	w := compileVBP(col, p)
	out := bitvec.New(col.Len())
	nseg := col.NumSegments()
	var scanned, prunedNone, prunedAll, words uint64
	for seg := 0; seg < nseg; seg++ {
		if none, all, ok := w.Decide(seg); ok && none {
			prunedNone++
			continue // word already zero
		} else if ok && all {
			prunedAll++
			out.SetWord(seg, ^uint64(0))
			continue
		}
		scanned++
		fw, n := w.Eval(seg)
		words += n
		out.SetWord(seg, fw)
	}
	if es != nil {
		es.SegmentsScanned += scanned
		es.SegmentsPrunedNone += prunedNone
		es.SegmentsPrunedAll += prunedAll
		es.WordsCompared += words
	}
	return out
}

// constLanesVBP spreads each bit of the k-bit constant to a full word of
// lanes: entry p is all-ones iff bit p (0 = MSB) of c is set.
func constLanesVBP(c uint64, k int) []uint64 {
	lanes := make([]uint64, k)
	for p := 0; p < k; p++ {
		if c>>uint(k-1-p)&1 == 1 {
			lanes[p] = ^uint64(0)
		}
	}
	return lanes
}

// slotStride is how many bit positions the slot compares stage between
// early-stop checks.
const slotStride = 4

// VBPSlotCompare runs the staged less-than/equal comparison between two
// segments given as word slices in VBP order (bit position p at index p,
// both of length k). It returns the lt and eq lane masks. It is the
// BIT-PARALLEL-LESSTHAN building block of SLOTMIN (Algorithm 2): lanes
// where x < y slot-wise.
func VBPSlotCompare(x, y []uint64) (lt, eq uint64) {
	eq = ^uint64(0)
	for len(x) > slotStride && eq != 0 {
		lt, eq = stageLT(lt, eq, x[:slotStride], y)
		x, y = x[slotStride:], y[slotStride:]
	}
	if eq != 0 {
		lt, eq = stageLT(lt, eq, x, y)
	}
	return lt, eq
}

// VBPSlotCompareGT is the greater-than counterpart used by SLOTMAX.
func VBPSlotCompareGT(x, y []uint64) (gt, eq uint64) {
	eq = ^uint64(0)
	for len(x) > slotStride && eq != 0 {
		gt, eq = stageGT(gt, eq, x[:slotStride], y)
		x, y = x[slotStride:], y[slotStride:]
	}
	if eq != 0 {
		gt, eq = stageGT(gt, eq, x, y)
	}
	return gt, eq
}
