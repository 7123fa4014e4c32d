package scan

import (
	"fmt"
	"strings"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Exhaustive small-domain equivalence of the scan kernels: every operator,
// every width k in [1, 12], every legal bit-group size, every constant,
// over a column that holds every k-bit value (shuffled, so zones rarely
// prune, with a ragged last segment). Both consumers of the segment body
// are checked against Predicate.Matches: the two-phase bitmap and the
// WindowPred.Eval filter word.

// domainValues returns every k-bit value once, in a fixed shuffled order,
// followed by a few repeats that leave the last segment ragged at every
// window width.
func domainValues(k int) []uint64 {
	n := 1 << uint(k)
	vals := make([]uint64, n, n+7)
	for i := range vals {
		vals[i] = uint64(i)
	}
	x := uint64(k)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x >> 33 % uint64(i+1))
		vals[i], vals[j] = vals[j], vals[i]
	}
	return append(vals, vals[:7]...)
}

// domainPredicates returns every single-constant predicate over k bits,
// and BETWEEN with every low bound against a spread of high bounds
// (equal, adjacent, the maximum, midway, and one below the low bound,
// which selects nothing). Domains up to 5 bits get every pair.
func domainPredicates(k int) []Predicate {
	max := word.LowMask(k)
	var ps []Predicate
	for c := uint64(0); c <= max; c++ {
		for _, op := range []Op{EQ, NE, LT, LE, GT, GE} {
			ps = append(ps, Predicate{Op: op, A: c})
		}
		if k <= 5 {
			for b := uint64(0); b <= max; b++ {
				ps = append(ps, Predicate{Op: Between, A: c, B: b})
			}
			continue
		}
		for _, b := range []uint64{c, min(c+1, max), max, c + (max-c)/2, c - min(c, 1)} {
			ps = append(ps, Predicate{Op: Between, A: c, B: b})
		}
	}
	return ps
}

// windowsDiffer compares every window's Eval word, masked to the
// window's tuples, with the matching slice of want; it describes the
// first difference.
func windowsDiffer(w WindowPred, want *bitvec.Bitmap) string {
	bits := w.WindowBits()
	for win := 0; win < w.NumWindows(); win++ {
		valid := min(bits, want.Len()-win*bits)
		fw, _ := w.Eval(win)
		if got, exp := fw&word.LowMask(valid), want.Extract(win*bits, valid); got != exp {
			return fmt.Sprintf("window %d Eval = %#x, want %#x", win, got, exp)
		}
	}
	return ""
}

func bitmapsDiffer(got, want *bitvec.Bitmap) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("bitmap length %d, want %d", got.Len(), want.Len())
	}
	for i, w := range want.Words() {
		if got.Word(i) != w {
			return fmt.Sprintf("bitmap word %d = %#x, want %#x", i, got.Word(i), w)
		}
	}
	return ""
}

func TestKernelsExhaustiveSmallDomain(t *testing.T) {
	maxK := 12
	if testing.Short() {
		maxK = 9 // each further bit quadruples constants x rows
	}
	for k := 1; k <= maxK; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			vals := domainValues(k)
			var vcols []*vbp.Column
			var hcols []*hbp.Column
			for tau := 1; tau <= k; tau++ {
				vcols = append(vcols, vbp.Pack(vals, k, tau))
				hcols = append(hcols, hbp.Pack(vals, k, tau))
			}
			want := bitvec.New(len(vals))
			for _, p := range domainPredicates(k) {
				for i, v := range vals {
					want.SetBool(i, p.Matches(v))
				}
				for _, col := range vcols {
					d := bitmapsDiffer(VBPStats(col, p, nil), want)
					if d == "" {
						d = windowsDiffer(NewVBPWindowPred(col, p), want)
					}
					if d != "" {
						t.Fatalf("VBP tau=%d %s %d/%d: %s", col.Tau(), p.Op, p.A, p.B, d)
					}
				}
				for _, col := range hcols {
					d := bitmapsDiffer(HBPStats(col, p, nil), want)
					if d == "" {
						d = windowsDiffer(NewHBPWindowPred(col, p), want)
					}
					if d != "" {
						t.Fatalf("HBP tau=%d %s %d/%d: %s", col.Tau(), p.Op, p.A, p.B, d)
					}
				}
			}
		})
	}
}

// An operator outside the seven comparisons is rejected on entry, like an
// oversized constant: before any segment is scanned or zone-decided, so a
// column whose every segment the zone map would prune (here: an empty
// one) does not answer it with a bitmap, and a window evaluator is never
// built for it.
func TestScanUnknownOperatorPanicsUpFront(t *testing.T) {
	vcol := vbp.Pack(nil, 4, 2)
	hcol := hbp.Pack(nil, 4, 2)
	bad := Predicate{Op: Between + 1, A: 3}
	for name, scan := range map[string]func(){
		"VBPStats":         func() { VBPStats(vcol, bad, nil) },
		"HBPStats":         func() { HBPStats(hcol, bad, nil) },
		"NewVBPWindowPred": func() { NewVBPWindowPred(vcol, bad) },
		"NewHBPWindowPred": func() { NewHBPWindowPred(hcol, bad) },
		"negative op":      func() { VBPStats(vcol, Predicate{Op: -1}, nil) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "scan: predicate operator ") {
					t.Errorf("%s: recovered %q, want a scan: predicate operator panic", name, msg)
				}
			}()
			scan()
		}()
	}
}
