package scan

import (
	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/word"
)

// hbpPred is a predicate compiled against an HBP column: the one segment
// body (Eval) behind the two-phase scan, BETWEEN and the fused window
// path. It is read-only after construction.
type hbpPred struct {
	col    *hbp.Column
	p      Predicate
	lanes  lanes
	invert uint64   // the segment's tuple mask when the filter word is the lanes' complement
	a, b   []uint64 // per-group constant words of p.A and (Between) p.B
}

func compileHBP(col *hbp.Column, p Predicate) *hbpPred {
	p.check(col.K())
	w := &hbpPred{col: col, p: p, a: constWordsHBP(col, p.A)}
	var invert bool
	w.lanes, invert = p.Op.plan()
	if w.lanes == lanesBetween {
		w.b = constWordsHBP(col, p.B)
	}
	// A single-group column needs no eq chain: one Lamport subtraction
	// yields >= (or <=, or both bounds of BETWEEN) directly, which is the
	// complement of what the staged lt/gt lanes accumulate.
	if col.NumGroups() == 1 && w.lanes != lanesEQ {
		invert = !invert
	}
	if invert {
		w.invert = word.LowMask(col.ValuesPerSegment())
	}
	return w
}

// NewHBPWindowPred returns the window evaluator for p over col. Like the
// scans, it panics when the operator is unknown or the predicate's
// constants do not fit in k bits.
func NewHBPWindowPred(col *hbp.Column, p Predicate) WindowPred { return compileHBP(col, p) }

func (w *hbpPred) WindowBits() int { return w.col.ValuesPerSegment() }
func (w *hbpPred) NumWindows() int { return w.col.NumSegments() }

func (w *hbpPred) Decide(win int) (none, all, ok bool) {
	return w.p.decide(w.col.ZoneRange(win))
}

// Eval compares segment win one sub-segment word at a time. Each
// word-group contributes full-word Lamport comparisons on the delimiter
// lane (paper §II-B): the injected delimiter gives each field the
// headroom that turns a single 64-bit subtraction into c independent
// tau-bit comparisons, so (x|delim)-y keeps a field's delimiter exactly
// when x >= y there, and delim-(x^y) exactly when x == y. Groups are
// staged most significant first; a lane still in eq is decided by the
// first group that differs, and a sub-segment stops once eq is empty.
// The decided lanes shift from the delimiter positions onto the
// sub-segment's tuple positions of the filter word.
func (w *hbpPred) Eval(win int) (fw, words uint64) {
	delim, tau := w.col.DelimMask(), uint(w.col.Tau())
	subs := w.col.SubSegments()
	groups := w.col.Groups()
	base := win * subs
	if len(groups) == 1 {
		first := groups[0][base : base+subs]
		a := w.a[0]
		switch w.lanes {
		case lanesLT: // x >= a
			for t, x := range first {
				fw |= (((x | delim) - a) & delim) >> ((tau - uint(t)) & 63)
			}
		case lanesGT: // x <= a
			for t, x := range first {
				fw |= (((a | delim) - x) & delim) >> ((tau - uint(t)) & 63)
			}
		case lanesEQ:
			for t, x := range first {
				fw |= ((delim - (x ^ a)) & delim) >> ((tau - uint(t)) & 63)
			}
		default: // a <= x <= b
			b := w.b[0]
			for t, x := range first {
				fw |= (((x | delim) - a) & ((b | delim) - x) & delim) >> ((tau - uint(t)) & 63)
			}
		}
		return fw ^ w.invert, uint64(subs)
	}
	a := w.a[:len(groups)]
	switch w.lanes {
	case lanesLT:
		for t := 0; t < subs; t++ {
			eq, lt := delim, uint64(0)
			for g := 0; g < len(groups) && eq != 0; g++ {
				x := groups[g][base+t]
				lt |= eq &^ ((x | delim) - a[g])
				eq &= delim - (x ^ a[g])
				words++
			}
			fw |= lt >> ((tau - uint(t)) & 63)
		}
	case lanesGT:
		for t := 0; t < subs; t++ {
			eq, gt := delim, uint64(0)
			for g := 0; g < len(groups) && eq != 0; g++ {
				x := groups[g][base+t]
				gt |= eq &^ ((a[g] | delim) - x)
				eq &= delim - (x ^ a[g])
				words++
			}
			fw |= gt >> ((tau - uint(t)) & 63)
		}
	case lanesEQ:
		for t := 0; t < subs; t++ {
			eq := delim
			for g := 0; g < len(groups) && eq != 0; g++ {
				eq &= delim - (groups[g][base+t] ^ a[g])
				words++
			}
			fw |= eq >> ((tau - uint(t)) & 63)
		}
	default:
		b := w.b[:len(groups)]
		for t := 0; t < subs; t++ {
			eqA, eqB, out := delim, delim, uint64(0)
			for g := 0; g < len(groups) && eqA|eqB != 0; g++ {
				x := groups[g][base+t]
				out |= eqA&^((x|delim)-a[g]) | eqB&^((b[g]|delim)-x)
				eqA &= delim - (x ^ a[g])
				eqB &= delim - (x ^ b[g])
				words++
			}
			fw |= out >> ((tau - uint(t)) & 63)
		}
	}
	return fw ^ w.invert, words
}

// HBPStats evaluates p over an HBP column and returns the dense filter
// bitmap. When es is non-nil the scan also reports segments scanned vs
// zone-pruned and the packed words actually compared (net of the
// per-sub-segment early stop). The counters always run on function-local
// integers; a nil es costs one branch at the end, so there is no
// uninstrumented twin.
func HBPStats(col *hbp.Column, p Predicate, es *metrics.ExecStats) *bitvec.Bitmap {
	w := compileHBP(col, p)
	out := bitvec.New(col.Len())
	vps := col.ValuesPerSegment()
	nseg := col.NumSegments()
	var scanned, prunedNone, prunedAll, words uint64
	for seg := 0; seg < nseg; seg++ {
		fw := ^uint64(0)
		if none, all, ok := w.Decide(seg); ok && none {
			prunedNone++
			continue // bitmap already zero
		} else if ok && all {
			prunedAll++
		} else {
			scanned++
			var n uint64
			fw, n = w.Eval(seg)
			words += n
		}
		// Segments of exactly 64 tuples are bitmap words. Either way the
		// bitmap drops the ragged last segment's bits beyond Len.
		if vps == 64 {
			out.SetWord(seg, fw)
		} else {
			out.Deposit(seg*vps, vps, fw)
		}
	}
	if es != nil {
		es.SegmentsScanned += scanned
		es.SegmentsPrunedNone += prunedNone
		es.SegmentsPrunedAll += prunedAll
		es.WordsCompared += words
	}
	return out
}

// HBPEqualGroupLanes returns the delimiter lanes where the group-g fields of
// w equal the tau-bit constant bin packed across all slots. It is the
// BIT-PARALLEL-EQUAL step of Algorithm 6 line 11, applied to a single
// word-group rather than the whole value.
func HBPEqualGroupLanes(col *hbp.Column, w uint64, bin uint64) uint64 {
	delim := col.DelimMask()
	y := word.Repeat(bin, col.FieldWidth(), col.FieldsPerWord())
	return word.EQDelims(w, y, delim)
}

// constWordsHBP packs each bit-group of the constant into all fields of a
// word, one word per group (the paper's W_c of Figure 3b, per group).
func constWordsHBP(col *hbp.Column, c uint64) []uint64 {
	b, tau := col.NumGroups(), col.Tau()
	kPad := b * tau
	out := make([]uint64, b)
	for g := 0; g < b; g++ {
		bg := c >> uint(kPad-(g+1)*tau) & word.LowMask(tau)
		out[g] = word.Repeat(bg, col.FieldWidth(), col.FieldsPerWord())
	}
	return out
}
