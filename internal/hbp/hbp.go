// Package hbp implements the Horizontal Bit Packing storage layout (paper
// §II-B, §II-C; BitWeaving/H of Li & Patel, after Lamport).
//
// A column of k-bit values is split into B = ceil(k/tau) bit-groups of tau
// bits (the value is zero-extended at the most significant end to B*tau bits
// so every group is uniform). Each bit-group is stored in a (tau+1)-bit
// field whose top bit is the delimiter — kept zero in storage so full-word
// add/subtract cannot carry across values. A word holds c = floor(64/(tau+1))
// fields, placed LSB-first: field s occupies bits [s*(tau+1), (s+1)*(tau+1)).
//
// A segment holds c*(tau+1) consecutive tuples in B*(tau+1) words. Tuples
// are assigned round-robin to the tau+1 sub-segments (tuple i of the segment
// goes to sub-segment i mod (tau+1), slot i div (tau+1)) so that the filter
// bit vector aligns with the delimiter lane after a single shift:
// M_d = (F << (tau-t)) & DelimMask for sub-segment t. Physically, words are
// grouped word-group-major (all sub-segments' group-g words of a segment are
// contiguous) for the cache-line optimization of §II-C.
//
// Setting tau = k yields the basic HBP format of Figure 3 (one bit-group,
// k+1-bit fields).
package hbp

import (
	"fmt"

	"bpagg/internal/word"
)

// MaxTau is the largest bit-group size (field width tau+1 must leave at
// least two fields per 64-bit word).
const MaxTau = word.MaxTau

// Column is an HBP-packed column of n values of k bits each.
type Column struct {
	k     int // logical value width
	tau   int // bit-group size
	b     int // number of bit-groups, ceil(k/tau)
	f     int // field width, tau+1
	c     int // fields per word, floor(64/f)
	vps   int // values per segment, c*(tau+1)
	n     int
	delim uint64 // cached DelimMask(tau, c): hot-loop operand
	vmask uint64 // cached ValueMask(tau, c)
	// groups[g] holds the group-g words of all segments, indexed
	// [seg*(tau+1) + t] for sub-segment t.
	groups [][]uint64
	// Per-segment zone map (see vbp.Column): min and max of each segment.
	zMin, zMax []uint64
	// Per-segment materialized sum (mod 2^64), maintained on append; the
	// fused scan→aggregate path answers all-match segments from zSum and
	// the exact zones without touching a packed word.
	zSum []uint64
	// cachesOff marks the segment aggregates stale (adopted zones or
	// resumed appends); see vbp.Column.
	cachesOff bool
}

// New returns an empty HBP column for k-bit values with bit-groups of tau
// bits. k must be in [1, 64] and tau in [1, min(k, MaxTau)].
func New(k, tau int) *Column {
	if k < 1 || k > 64 {
		panic(fmt.Sprintf("hbp: value width %d out of range [1,64]", k))
	}
	if tau < 1 || tau > MaxTau || tau > k {
		panic(fmt.Sprintf("hbp: bit-group size %d out of range [1,%d]", tau, min(k, MaxTau)))
	}
	b := (k + tau - 1) / tau
	f := tau + 1
	c := 64 / f
	return &Column{
		k: k, tau: tau, b: b, f: f, c: c,
		vps:    c * (tau + 1),
		delim:  word.DelimMask(tau, c),
		vmask:  word.ValueMask(tau, c),
		groups: make([][]uint64, b),
	}
}

// DefaultTau returns a bit-group size that minimizes words touched per
// value (B/c) for a k-bit column. Ties prefer field widths dividing 64
// (segments then hold exactly 64 tuples, enabling the aligned filter-window
// fast path) and then the smallest tau (keeping the MEDIAN histogram
// small). It mirrors the analytically determined tau of the paper's
// technical report.
func DefaultTau(k int) int {
	if k > MaxTau {
		k = MaxTau // a single value must fit at least one group per word
	}
	best, bestCost := 1, costPerValue(k, 1)
	for tau := 2; tau <= k; tau++ {
		c := costPerValue(k, tau)
		if c < bestCost || (c == bestCost && aligned(tau) && !aligned(best)) {
			best, bestCost = tau, c
		}
	}
	return best
}

// costPerValue returns B/c scaled to an integer comparison value.
func costPerValue(k, tau int) int {
	b := (k + tau - 1) / tau
	c := 64 / (tau + 1)
	return b * 1024 / c
}

// aligned reports whether the field width divides the processor word.
func aligned(tau int) bool { return 64%(tau+1) == 0 }

// Pack builds an HBP column from plain values. Every value must fit in k
// bits.
func Pack(values []uint64, k, tau int) *Column {
	c := New(k, tau)
	c.Append(values...)
	return c
}

// FromWords adopts raw group word slices as an n-value column — the
// deserialization path. Each groups[g] must hold NumSegments*(tau+1) words,
// and no word may carry delimiter or padding bits (which storage never
// produces, so their presence marks corruption).
func FromWords(k, tau, n int, groups [][]uint64) (*Column, error) {
	c := New(k, tau)
	if n < 0 {
		return nil, fmt.Errorf("hbp: negative length %d", n)
	}
	c.n = n
	if len(groups) != c.b {
		return nil, fmt.Errorf("hbp: %d groups, want %d", len(groups), c.b)
	}
	nseg := c.NumSegments()
	valid := word.ValueMask(tau, c.c)
	for g := range groups {
		if want := nseg * (tau + 1); len(groups[g]) != want {
			return nil, fmt.Errorf("hbp: group %d has %d words, want %d", g, len(groups[g]), want)
		}
		for wi, w := range groups[g] {
			if w&^valid != 0 {
				return nil, fmt.Errorf("hbp: group %d word %d has delimiter or padding bits set", g, wi)
			}
		}
	}
	c.groups = groups
	return c, nil
}

// K returns the value width in bits.
func (c *Column) K() int { return c.k }

// Tau returns the bit-group size.
func (c *Column) Tau() int { return c.tau }

// FieldWidth returns tau+1, the delimited field width.
func (c *Column) FieldWidth() int { return c.f }

// FieldsPerWord returns c, the number of fields (slots) per word.
func (c *Column) FieldsPerWord() int { return c.c }

// NumGroups returns B, the number of bit-groups.
func (c *Column) NumGroups() int { return c.b }

// ValuesPerSegment returns the number of tuples a segment holds,
// c*(tau+1) — 64 exactly when tau+1 divides 64.
func (c *Column) ValuesPerSegment() int { return c.vps }

// SubSegments returns tau+1, the number of sub-segments per segment.
func (c *Column) SubSegments() int { return c.tau + 1 }

// Len returns the number of values in the column.
func (c *Column) Len() int { return c.n }

// NumSegments returns the number of segments (the last may be partially
// filled; its unused fields are zero).
func (c *Column) NumSegments() int { return (c.n + c.vps - 1) / c.vps }

// GroupWords exposes the group-g word slice, indexed [seg*(tau+1)+t].
func (c *Column) GroupWords(g int) []uint64 { return c.groups[g] }

// Groups exposes every group's word slice at once, so a kernel hoists the
// lookup out of its per-word loop. Callers must not resize the slices.
func (c *Column) Groups() [][]uint64 { return c.groups }

// Word returns the group-g word of sub-segment t of segment seg.
func (c *Column) Word(g, seg, t int) uint64 {
	return c.groups[g][seg*(c.tau+1)+t]
}

// locate maps a global tuple index to (segment, sub-segment, slot).
func (c *Column) locate(i int) (seg, t, s int) {
	seg = i / c.vps
	local := i % c.vps
	return seg, local % (c.tau + 1), local / (c.tau + 1)
}

// Append adds values to the column. Each value must fit in k bits.
//
// Runs of a full segment starting at a segment boundary take a bulk path
// that assembles each word in a register before a single store, instead of
// one read-modify-write per field.
func (c *Column) Append(values ...uint64) {
	max := word.LowMask(c.k)
	i := 0
	for i < len(values) {
		if c.n%c.vps == 0 && len(values)-i >= c.vps {
			c.appendSegment(values[i:i+c.vps], max)
			i += c.vps
			continue
		}
		c.appendOne(values[i], max)
		i++
	}
}

// appendSegment packs exactly one full segment.
func (c *Column) appendSegment(vals []uint64, max uint64) {
	lo, hi := vals[0], vals[0]
	var sum uint64
	for _, v := range vals {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	c.ensureZones(c.n / c.vps)
	c.zMin = append(c.zMin, lo)
	c.zMax = append(c.zMax, hi)
	if !c.cachesOff {
		c.zSum = append(c.zSum, sum)
	}
	kPad := c.b * c.tau
	tmask := word.LowMask(c.tau)
	for g := 0; g < c.b; g++ {
		shift := uint(kPad - (g+1)*c.tau)
		for t := 0; t <= c.tau; t++ {
			var w uint64
			for s := c.c - 1; s >= 0; s-- {
				v := vals[s*(c.tau+1)+t]
				if v > max {
					panic(fmt.Sprintf("hbp: value %d does not fit in %d bits", v, c.k))
				}
				w = w<<uint(c.f) | (v>>shift)&tmask
			}
			c.groups[g] = append(c.groups[g], w)
		}
	}
	c.n += c.vps
}

// appendOne is the single-value path for partial segments.
func (c *Column) appendOne(v, max uint64) {
	if v > max {
		panic(fmt.Sprintf("hbp: value %d does not fit in %d bits", v, c.k))
	}
	seg, t, s := c.locate(c.n)
	if c.n%c.vps == 0 {
		for g := range c.groups {
			c.groups[g] = append(c.groups[g], make([]uint64, c.tau+1)...)
		}
		c.ensureZones(seg)
		c.zMin = append(c.zMin, v)
		c.zMax = append(c.zMax, v)
		if !c.cachesOff {
			c.zSum = append(c.zSum, v)
		}
	} else {
		c.ensureZones(seg + 1)
		if v < c.zMin[seg] {
			c.zMin[seg] = v
		}
		if v > c.zMax[seg] {
			c.zMax[seg] = v
		}
		if !c.cachesOff {
			c.zSum[seg] += v
		}
	}
	base := seg * (c.tau + 1)
	kPad := c.b * c.tau
	for g := 0; g < c.b; g++ {
		// Group g holds bits [kPad-g*tau-1 .. kPad-(g+1)*tau] of the
		// zero-extended value, i.e. shift right by the bits below it.
		bg := v >> uint(kPad-(g+1)*c.tau) & word.LowMask(c.tau)
		c.groups[g][base+t] = word.PutField(c.groups[g][base+t], c.tau, s, bg)
	}
	c.n++
}

// At reconstructs value i to plain form — the per-value path the paper's
// bit-parallel algorithms avoid; aggregation uses it only for the O(c)
// finalists of MIN/MAX.
func (c *Column) At(i int) uint64 {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("hbp: index %d out of range [0,%d)", i, c.n))
	}
	seg, t, s := c.locate(i)
	base := seg * (c.tau + 1)
	var v uint64
	for g := 0; g < c.b; g++ {
		v = v<<uint(c.tau) | word.Field(c.groups[g][base+t], c.tau, s)
	}
	return v
}

// Unpack reconstructs the whole column to plain form (for tests and
// debugging).
func (c *Column) Unpack() []uint64 {
	out := make([]uint64, c.n)
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

// SegmentValues returns how many tuples of segment seg hold real data.
func (c *Column) SegmentValues(seg int) int {
	if seg == c.NumSegments()-1 {
		if r := c.n % c.vps; r != 0 {
			return r
		}
	}
	return c.vps
}

// DelimMask returns the delimiter lane for this column's field shape.
func (c *Column) DelimMask() uint64 { return c.delim }

// ValueMask returns the value lanes for this column's field shape.
func (c *Column) ValueMask() uint64 { return c.vmask }

// SubSegmentDelims extracts the delimiter filter M_d for sub-segment t of
// segment seg from the dense window fw (the vps filter bits of the segment,
// LSB-first): M_d = (fw << (tau-t)) & DelimMask. Paper: GET-VALUE-FILTER
// step 1 and Algorithm 5 line 4 (shift direction flipped for LSB-first
// fields).
func (c *Column) SubSegmentDelims(fw uint64, t int) uint64 {
	return fw << uint(c.tau-t) & c.delim
}

// ScatterDelims is the inverse of SubSegmentDelims: it maps delimiter bits
// of sub-segment t back onto dense filter positions within the segment
// window.
func (c *Column) ScatterDelims(delims uint64, t int) uint64 {
	return delims >> uint(c.tau-t)
}

// Zones exposes the per-segment zone arrays for serialization; both are
// nil or shorter than NumSegments when zones are (partially) untracked.
func (c *Column) Zones() (zMin, zMax []uint64) { return c.zMin, c.zMax }

// SetZones adopts zone arrays (the deserialization path). Lengths must
// equal NumSegments and every range must be ordered and fit in k bits.
func (c *Column) SetZones(zMin, zMax []uint64) error {
	nseg := c.NumSegments()
	if len(zMin) != nseg || len(zMax) != nseg {
		return fmt.Errorf("%s: zone arrays have %d/%d entries, want %d", "hbp", len(zMin), len(zMax), nseg)
	}
	max := word.LowMask(c.k)
	for i := range zMin {
		if zMin[i] > zMax[i] || zMax[i] > max {
			return fmt.Errorf("%s: invalid zone [%d, %d] at segment %d", "hbp", zMin[i], zMax[i], i)
		}
	}
	c.zMin, c.zMax = zMin, zMax
	// Adopted zones are validated for soundness, not exactness, so the
	// segment-aggregate caches stay off until RebuildSegmentAggregates.
	c.cachesOff = true
	c.zSum = nil
	return nil
}

// ZoneRange returns the minimum and maximum value stored in segment seg.
// ok is false when no zone is tracked for the segment (columns adopted via
// FromWords carry no zones); callers must then assume the full k-bit range.
func (c *Column) ZoneRange(seg int) (lo, hi uint64, ok bool) {
	if seg >= len(c.zMin) {
		return 0, word.LowMask(c.k), false
	}
	return c.zMin[seg], c.zMax[seg], true
}

// ensureZones pads conservative full-range zones for segments [len, upto)
// — needed when appends resume on a column adopted via FromWords. Padded
// zones are sound for pruning but not exact, so the segment-aggregate
// caches are disabled until RebuildSegmentAggregates.
func (c *Column) ensureZones(upto int) {
	if len(c.zMin) < upto {
		c.cachesOff = true
		c.zSum = nil
	}
	for len(c.zMin) < upto {
		c.zMin = append(c.zMin, 0)
		c.zMax = append(c.zMax, word.LowMask(c.k))
	}
}

// SegmentSum returns the sum (mod 2^64) of the values stored in segment
// seg. ok is false when the cache is stale or untracked (see
// RebuildSegmentAggregates).
func (c *Column) SegmentSum(seg int) (sum uint64, ok bool) {
	if c.cachesOff || seg >= len(c.zSum) {
		return 0, false
	}
	return c.zSum[seg], true
}

// SegmentRangeExact returns the exact minimum and maximum value stored in
// segment seg — unlike ZoneRange, which may return conservative bounds
// for adopted or padded zones. ok is false when exactness cannot be
// guaranteed.
func (c *Column) SegmentRangeExact(seg int) (lo, hi uint64, ok bool) {
	if c.cachesOff || seg >= len(c.zMin) {
		return 0, 0, false
	}
	return c.zMin[seg], c.zMax[seg], true
}

// RebuildSegmentAggregates recomputes the per-segment zones and sums from
// the packed words, re-enabling the exact segment-aggregate caches after
// FromWords/SetZones. The deserializer calls it for columns that carry
// zones, so a reloaded column fuses as well as a freshly packed one.
func (c *Column) RebuildSegmentAggregates() {
	nseg := c.NumSegments()
	c.zMin = make([]uint64, nseg)
	c.zMax = make([]uint64, nseg)
	c.zSum = make([]uint64, nseg)
	for seg := 0; seg < nseg; seg++ {
		base := seg * c.vps
		cnt := c.SegmentValues(seg)
		lo, hi, sum := ^uint64(0), uint64(0), uint64(0)
		for j := 0; j < cnt; j++ {
			v := c.At(base + j)
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		c.zMin[seg], c.zMax[seg], c.zSum[seg] = lo, hi, sum
	}
	c.cachesOff = false
}

// MemoryWords returns the number of 64-bit words backing the column.
func (c *Column) MemoryWords() int {
	var t int
	for g := range c.groups {
		t += len(c.groups[g])
	}
	return t
}
