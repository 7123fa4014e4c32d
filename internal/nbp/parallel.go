package nbp

import (
	"math/bits"
	"slices"
	"sync"

	"bpagg/internal/bitvec"
)

// Options selects multi-threaded baseline execution, mirroring the
// partition-and-combine scheme the paper applies to both methods in its
// Table II runs ("multi-threaded; SIMD-enabled"). Reconstruction is scalar
// by nature, so there is no wide-word variant.
type Options struct {
	// Threads is the number of worker goroutines; values < 2 mean serial.
	Threads int
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// wordRanges partitions the filter's word index space into at most n
// contiguous ranges.
func wordRanges(f *bitvec.Bitmap, n int) [][2]int {
	nw := f.NumWords()
	if n > nw {
		n = nw
	}
	if n < 1 {
		n = 1
	}
	out := make([][2]int, 0, n)
	base, rem := nw/n, nw%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// inRanges runs body once per word range of f, each range [lo, hi) the
// w-th of at most o's thread count: on the calling goroutine when there is
// one range, on one goroutine each otherwise.
func inRanges(col valueSource, f *bitvec.Bitmap, o Options, body func(w, lo, hi int)) {
	if f.Len() != col.Len() {
		panic("nbp: filter length does not match column length")
	}
	parts := wordRanges(f, o.threads())
	if len(parts) == 1 {
		body(0, parts[0][0], parts[0][1])
		return
	}
	var wg sync.WaitGroup
	for w, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, p[0], p[1])
		}()
	}
	wg.Wait()
}

// forEachValue drives the paper's four-step reconstruction loop over
// filter words [wordLo, wordHi): walk each word of F, peel the lowest set
// bit, reconstruct that tuple, repeat until the word is exhausted.
func forEachValue(col valueSource, f *bitvec.Bitmap, wordLo, wordHi int, fn func(v uint64)) {
	words := f.Words()
	for wi := wordLo; wi < wordHi; wi++ {
		w := words[wi]
		base := wi * 64
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			fn(col.At(i))
			w &= w - 1
		}
	}
}

// Sum aggregates SUM by reconstructing every passing value, one partial
// per word range.
func Sum(col valueSource, f *bitvec.Bitmap, o Options) uint64 {
	partials := make([]uint64, o.threads())
	inRanges(col, f, o, func(w, lo, hi int) {
		var s uint64
		forEachValue(col, f, lo, hi, func(v uint64) { s += v })
		partials[w] = s
	})
	var sum uint64
	for _, p := range partials {
		sum += p
	}
	return sum
}

// Min aggregates MIN; ok is false when no tuple passes.
func Min(col valueSource, f *bitvec.Bitmap, o Options) (uint64, bool) {
	return extreme(col, f, o, true)
}

// Max aggregates MAX; ok is false when no tuple passes.
func Max(col valueSource, f *bitvec.Bitmap, o Options) (uint64, bool) {
	return extreme(col, f, o, false)
}

func extreme(col valueSource, f *bitvec.Bitmap, o Options, wantMin bool) (uint64, bool) {
	partials := make([]uint64, o.threads())
	found := make([]bool, o.threads())
	inRanges(col, f, o, func(w, lo, hi int) {
		var m uint64
		ok := false
		forEachValue(col, f, lo, hi, func(v uint64) {
			if !ok || (wantMin && v < m) || (!wantMin && v > m) {
				m, ok = v, true
			}
		})
		partials[w], found[w] = m, ok
	})
	var best uint64
	ok := false
	for w, p := range partials {
		if found[w] && (!ok || (wantMin && p < best) || (!wantMin && p > best)) {
			best, ok = p, true
		}
	}
	return best, ok
}

// Avg aggregates AVG; ok is false when no tuple passes.
func Avg(col valueSource, f *bitvec.Bitmap, o Options) (float64, bool) {
	cnt := f.Count()
	if cnt == 0 {
		return 0, false
	}
	return float64(Sum(col, f, o)) / float64(cnt), true
}

// Median aggregates the lower MEDIAN; ok is false when no tuple passes.
// Each word range reconstructs into its own buffer, and quickselect runs
// over their concatenation.
func Median(col valueSource, f *bitvec.Bitmap, o Options) (uint64, bool) {
	bufs := make([][]uint64, o.threads())
	inRanges(col, f, o, func(w, lo, hi int) {
		// Exact sizing via a rank difference keeps appends allocation-free.
		buf := make([]uint64, 0, f.Rank(hi*64)-f.Rank(lo*64))
		forEachValue(col, f, lo, hi, func(v uint64) { buf = append(buf, v) })
		bufs[w] = buf
	})
	vals := bufs[0]
	if len(bufs) > 1 {
		vals = slices.Concat(bufs...)
	}
	if len(vals) == 0 {
		return 0, false
	}
	return Quickselect(vals, (uint64(len(vals))+1)/2), true
}
