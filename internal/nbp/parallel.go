package nbp

import (
	"math/bits"
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

// forEachValueRange reconstructs the passing values of filter words
// [wordLo, wordHi).
func forEachValueRange(col valueSource, f *bitvec.Bitmap, wordLo, wordHi int, fn func(v uint64)) {
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

// SumOpt is Sum with optional multithreading.
func SumOpt(col valueSource, f *bitvec.Bitmap, o Options) uint64 {
	if o.threads() == 1 {
		return Sum(col, f)
	}
	parts := wordRanges(f, o.threads())
	partials := make([]uint64, len(parts))
	var wg sync.WaitGroup
	for w, p := range parts {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var s uint64
			forEachValueRange(col, f, lo, hi, func(v uint64) { s += v })
			partials[w] = s
		}(w, p[0], p[1])
	}
	wg.Wait()
	var sum uint64
	for _, p := range partials {
		sum += p
	}
	return sum
}

// MinOpt is Min with optional multithreading.
func MinOpt(col valueSource, f *bitvec.Bitmap, o Options) (uint64, bool) {
	return extremeOpt(col, f, o, true)
}

// MaxOpt is Max with optional multithreading.
func MaxOpt(col valueSource, f *bitvec.Bitmap, o Options) (uint64, bool) {
	return extremeOpt(col, f, o, false)
}

func extremeOpt(col valueSource, f *bitvec.Bitmap, o Options, wantMin bool) (uint64, bool) {
	if o.threads() == 1 {
		if wantMin {
			return Min(col, f)
		}
		return Max(col, f)
	}
	parts := wordRanges(f, o.threads())
	partials := make([]uint64, len(parts))
	found := make([]bool, len(parts))
	var wg sync.WaitGroup
	for w, p := range parts {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var m uint64
			ok := false
			forEachValueRange(col, f, lo, hi, func(v uint64) {
				if !ok || (wantMin && v < m) || (!wantMin && v > m) {
					m, ok = v, true
				}
			})
			partials[w], found[w] = m, ok
		}(w, p[0], p[1])
	}
	wg.Wait()
	var best uint64
	ok := false
	for w := range parts {
		if !found[w] {
			continue
		}
		if !ok || (wantMin && partials[w] < best) || (!wantMin && partials[w] > best) {
			best, ok = partials[w], true
		}
	}
	return best, ok
}

// AvgOpt is Avg with optional multithreading.
func AvgOpt(col valueSource, f *bitvec.Bitmap, o Options) (float64, bool) {
	cnt := f.Count()
	if cnt == 0 {
		return 0, false
	}
	return float64(SumOpt(col, f, o)) / float64(cnt), true
}

// MedianOpt is Median with optional multithreading: workers reconstruct
// their partitions into per-worker buffers, and quickselect runs over the
// concatenation.
func MedianOpt(col valueSource, f *bitvec.Bitmap, o Options) (uint64, bool) {
	vals := collectOpt(col, f, o)
	if len(vals) == 0 {
		return 0, false
	}
	return Quickselect(vals, (uint64(len(vals))+1)/2), true
}

func collectOpt(col valueSource, f *bitvec.Bitmap, o Options) []uint64 {
	if o.threads() == 1 {
		return collect(col, f)
	}
	parts := wordRanges(f, o.threads())
	bufs := make([][]uint64, len(parts))
	var wg sync.WaitGroup
	for w, p := range parts {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Exact sizing via a rank difference keeps appends allocation-free.
			cnt := f.Rank(hi*64) - f.Rank(lo*64)
			buf := make([]uint64, 0, cnt)
			forEachValueRange(col, f, lo, hi, func(v uint64) { buf = append(buf, v) })
			bufs[w] = buf
		}(w, p[0], p[1])
	}
	wg.Wait()
	var total int
	for _, b := range bufs {
		total += len(b)
	}
	out := make([]uint64, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}
