package word

import "math/bits"

// Positional-popcount primitives (DESIGN.md §14). VBP SUM reduces to one
// population count per plane word; a Harley–Seal carry-save network
// instead accumulates whole blocks of words into bit-sliced counters
// (ones/twos/fours planes) and pays one POPCNT per block tier, not per
// word. The primitives here are the per-word building blocks; the block
// accumulators that stream (segment, filter word) pairs through them live
// next to the kernels in internal/core.

// CSA is a carry-save adder: a, b and the incoming partial c are treated
// as 64 independent one-bit lanes, and each lane's full-adder sum and
// carry come back as two words. Five bitwise ops replace what would be 64
// scalar additions — the intra-cycle parallelism the paper builds on,
// applied to the counting itself.
func CSA(c, a, b uint64) (sum, carry uint64) {
	u := c ^ a
	return u ^ b, c&a | u&b
}

// CSA8 is the Harley–Seal block step: it folds eight words into the
// running bit-sliced counters ones/twos/fours (weights 1, 2 and 4) and
// returns the updated counters plus the eights word, every set bit of
// which carries weight 8. Callers add popcount(eights)·8 to their total —
// one POPCNT per eight words — and drain the residual counters with
// CSAFold once the stream ends. Zero input words pass through every adder
// unchanged, so partial blocks may be zero-padded exactly.
func CSA8(ones, twos, fours uint64, w *[8]uint64) (o, t, f, eights uint64) {
	var tA, tB, fA, fB uint64
	ones, tA = CSA(ones, w[0], w[1])
	ones, tB = CSA(ones, w[2], w[3])
	twos, fA = CSA(twos, tA, tB)
	ones, tA = CSA(ones, w[4], w[5])
	ones, tB = CSA(ones, w[6], w[7])
	twos, fB = CSA(twos, tA, tB)
	fours, eights = CSA(fours, fA, fB)
	return ones, twos, fours, eights
}

// CSAFold drains the residual counter state into a scalar count:
// popcount(ones) + 2·popcount(twos) + 4·popcount(fours). The weights are
// applied with the addition-doubling identity of the SWAR counting paper
// (2x computed as x+x), so the in-word fold is shift-free and the whole
// expression is a pure add tree.
func CSAFold(ones, twos, fours uint64) uint64 {
	t := uint64(bits.OnesCount64(twos))
	q := uint64(bits.OnesCount64(fours))
	q += q // 2·popcount(fours)
	return uint64(bits.OnesCount64(ones)) + t + t + q + q
}

// OnesCounter is a streaming population counter over a word sequence —
// the COUNT-side use of the carry-save network. Words are fed one at a
// time; odd arrivals wait in pend, and each completed pair costs one CSA
// plus two half-adds, paying a POPCNT only when a bit ripples into the
// weight-8 tier instead of once per word. The zero value is ready to use.
type OnesCounter struct {
	ones, twos, fours uint64
	pend              uint64
	has               bool
	total             uint64
}

// Feed accumulates the set bits of w.
func (c *OnesCounter) Feed(w uint64) {
	if !c.has {
		c.pend, c.has = w, true
		return
	}
	c.has = false
	var t, f, e uint64
	c.ones, t = CSA(c.ones, c.pend, w)
	c.twos, f = CSA(c.twos, t, 0)
	c.fours, e = CSA(c.fours, f, 0)
	if e != 0 {
		c.total += uint64(bits.OnesCount64(e)) << 3
	}
}

// Total returns the bits counted so far. The counter stays usable; Total
// folds the residual tiers without consuming them.
func (c *OnesCounter) Total() uint64 {
	n := c.total + CSAFold(c.ones, c.twos, c.fours)
	if c.has {
		n += uint64(bits.OnesCount64(c.pend))
	}
	return n
}
