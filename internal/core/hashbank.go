package core

import (
	"math/bits"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// Hash-banked grouped partition (DESIGN.md §12): the tier that takes over
// when the direct-mapped GroupBank overflows its 10-bit key width or
// MaxGroups budget. Each worker banks per-key selection words into its own
// open-addressing flat hash table; keys are packed composite codes
// (per-column shift/width metadata lives in the caller), and the entry
// payload is a sparse (segment, word) run list rather than the direct
// tier's dense per-segment array, so memory is proportional to the words
// actually banked, not keys × segments. The parallel driver merges the
// per-worker tables by sorted key order, which keeps grouped results
// bit-identical across thread counts.

// MaxHashGroups bounds the distinct keys the hash-banked tier will
// discover before giving up. Past this cardinality per-group state (keys,
// counts, 128-bit accumulators) dominates the working set; the limit is
// an engine ceiling, not a table capacity — the tables grow incrementally
// up to it.
const MaxHashGroups = 1 << 20

// SegWord is one banked selection word: the filter bits of key's rows in
// window Seg of the grouping column's segmentation.
type SegWord struct {
	Seg int32
	W   uint64
}

// HashBank is one worker's open-addressing key table: linear probing over
// a power-of-two slot array (Fibonacci hashing picks the home slot),
// growing incrementally at 50% load. Keys holds the discovered keys in
// insertion order; Ents[i] is key Keys[i]'s (segment, word) run list,
// ascending by segment. Probes counts slot inspections and Growths table
// doublings — the raw material of the HashProbes/HashGrowths ExecStats.
// BankWords counts banked (key, segment) words, the bank's real memory
// footprint (same meaning as GroupBank.BankWords).
type HashBank struct {
	Keys      []uint64
	Ents      [][]SegWord
	Probes    uint64
	Growths   uint64
	BankWords uint64
	table     []int32 // slot → key index + 1; 0 = empty
	shift     uint    // 64 - log2(len(table))
	limit     int
}

// hashBankMinCap is the initial slot count; small enough that a
// low-cardinality partition stays cache-resident, large enough that
// typical segments insert without growing.
const hashBankMinCap = 64

// fibMul is the 64-bit Fibonacci hashing multiplier (2^64 / φ): the high
// bits of key*fibMul spread consecutive dictionary codes — the common
// case — across the table instead of clustering them.
const fibMul = 0x9E3779B97F4A7C15

// NewHashBank returns an empty bank that will refuse the limit+1-th
// distinct key. Callers pass MaxHashGroups in production; tests pass tiny
// budgets to exercise the cardinality fallback cheaply.
func NewHashBank(limit int) *HashBank {
	return &HashBank{
		table: make([]int32, hashBankMinCap),
		shift: 64 - uint(bits.TrailingZeros64(hashBankMinCap)),
		limit: limit,
	}
}

// find probes for key and returns its slot plus the key index, or -1 when
// absent (the slot is then the insertion point).
func (b *HashBank) find(key uint64) (int, int) {
	mask := uint64(len(b.table) - 1)
	i := (key * fibMul) >> b.shift
	for {
		b.Probes++
		ki := b.table[i]
		if ki == 0 {
			return int(i), -1
		}
		if b.Keys[ki-1] == key {
			return int(i), int(ki - 1)
		}
		i = (i + 1) & mask
	}
}

// grow doubles the slot array and rehashes every key.
func (b *HashBank) grow() {
	b.Growths++
	old := b.table
	b.table = make([]int32, len(old)*2)
	b.shift--
	mask := uint64(len(b.table) - 1)
	for _, ki := range old {
		if ki == 0 {
			continue
		}
		i := (b.Keys[ki-1] * fibMul) >> b.shift
		for b.table[i] != 0 {
			i = (i + 1) & mask
		}
		b.table[i] = ki
	}
}

// Bank merges selection word w into key's run list for window seg,
// discovering the key on first use. It reports false when the bank is at
// its key budget — the hash tier's ErrGroupCardinality signal. The
// partition kernels visit segments in ascending order, so a repeat
// banking of the last (key, segment) pair ORs in place; HBP produces one
// word per (sub-segment, code) peel and relies on this.
func (b *HashBank) Bank(key uint64, seg int32, w uint64) bool {
	slot, ki := b.find(key)
	if ki < 0 {
		if len(b.Keys) >= b.limit {
			return false
		}
		if 2*(len(b.Keys)+1) > len(b.table) {
			b.grow()
			slot, _ = b.find(key)
		}
		b.Keys = append(b.Keys, key)
		b.Ents = append(b.Ents, nil)
		ki = len(b.Keys) - 1
		b.table[slot] = int32(ki + 1)
	}
	es := b.Ents[ki]
	if n := len(es); n > 0 && es[n-1].Seg == seg {
		es[n-1].W |= w
		return true
	}
	b.Ents[ki] = append(es, SegWord{Seg: seg, W: w})
	b.BankWords++
	return true
}

// Lookup returns key's run list without discovering it.
func (b *HashBank) Lookup(key uint64) ([]SegWord, bool) {
	if _, ki := b.find(key); ki >= 0 {
		return b.Ents[ki], true
	}
	return nil, false
}

// RewindowSegWords converts a run list from vpsFrom-value windows to
// vpsTo-value windows over the same row space. Composite-key refinement
// and the banked aggregate kernels both index windows in a specific
// column's segmentation; when two columns disagree (HBP's
// values-per-segment depends on its bit-group size), the entries are
// re-windowed. Input runs ascend by segment, so output runs ascend too
// and same-window spill from adjacent sources merges into the previous
// run.
func RewindowSegWords(es []SegWord, vpsFrom, vpsTo int) []SegWord {
	if vpsFrom == vpsTo {
		return es
	}
	out := make([]SegWord, 0, len(es)+1)
	for _, e := range es {
		base := int(e.Seg) * vpsFrom
		for m := base / vpsTo; m*vpsTo < base+vpsFrom; m++ {
			d := m*vpsTo - base
			var w uint64
			if d >= 0 {
				w = e.W >> uint(d)
			} else {
				w = e.W << uint(-d)
			}
			w &= word.LowMask(vpsTo)
			if w == 0 {
				continue
			}
			if n := len(out); n > 0 && out[n-1].Seg == int32(m) {
				out[n-1].W |= w
				continue
			}
			out = append(out, SegWord{Seg: int32(m), W: w})
		}
	}
	return out
}

// vbpSplitSeg splits one segment's selection word w into per-code words,
// writing (code, word) pairs into outP/outW and returning the pair count
// (≤ 64 — a segment holds at most 64 values). It is the unit step shared
// by the first-column hash partition and composite-key refinement: the
// same zone shortcuts as the direct kernel apply — a single-code segment
// is served without touching a packed word, and the codes' shared zone
// prefix skips the top planes of the descent. Stats follow the DESIGN.md
// §8 analytic conventions of VBPGroupPartitionRange.
func vbpSplitSeg(col *vbp.Column, pl *vbpPlanes, k, seg int, w uint64, outP, outW *[64]uint64, st *GroupStats) int {
	zlo, zhi, zok := col.ZoneRange(seg)
	if zok && zlo == zhi {
		outP[0], outW[0] = zlo, w
		st.CacheServed++
		return 1
	}
	if !zok {
		zlo, zhi = 0, word.LowMask(k)
	}
	shared := bits.LeadingZeros64(zlo^zhi) - (64 - k)
	if shared < 0 {
		shared = 0
	}
	st.Segments++
	st.Words += uint64(k - shared)
	var bufP, bufW [2][64]uint64
	curP, nxtP := bufP[0][:], bufP[1][:]
	curW, nxtW := bufW[0][:], bufW[1][:]
	curP[0] = zlo >> uint(k-shared)
	curW[0] = w
	cn := 1
	for p := shared; p < k; p++ {
		x := pl.word(p, seg)
		nn := 0
		for i := 0; i < cn; i++ {
			w, pre := curW[i], curP[i]<<1
			if w0 := w &^ x; w0 != 0 {
				nxtP[nn], nxtW[nn] = pre, w0
				nn++
			}
			if w1 := w & x; w1 != 0 {
				nxtP[nn], nxtW[nn] = pre|1, w1
				nn++
			}
		}
		curP, nxtP = nxtP, curP
		curW, nxtW = nxtW, curW
		cn = nn
	}
	copy(outP[:cn], curP[:cn])
	copy(outW[:cn], curW[:cn])
	return cn
}

// hbpSplitCtx hoists the per-column constants of hbpSplitSeg out of the
// per-segment loop.
type hbpSplitCtx struct {
	tau, b, subs, fWidth int
	delim, ones          uint64
	gws                  [][]uint64
}

func newHBPSplitCtx(col *hbp.Column) hbpSplitCtx {
	return hbpSplitCtx{
		tau: col.Tau(), b: col.NumGroups(), subs: col.SubSegments(),
		fWidth: col.FieldWidth(), delim: col.DelimMask(),
		ones: word.Repeat(1, col.FieldWidth(), col.FieldsPerWord()),
		gws:  groupSlices(col),
	}
}

// hbpSplitSeg is the HBP twin of vbpSplitSeg: per sub-segment window the
// pending delimiter bits peel one distinct code at a time, with one
// Lamport equality per word-group matching all its occurrences at once.
// The same code can surface from several sub-segments of the window, so
// output pairs dedup by linear scan (≤ 64 live codes per segment).
func hbpSplitSeg(col *hbp.Column, c *hbpSplitCtx, seg int, fw uint64, outP, outW *[64]uint64, st *GroupStats) int {
	if zlo, zhi, zok := col.ZoneRange(seg); zok && zlo == zhi {
		outP[0], outW[0] = zlo, fw
		st.CacheServed++
		return 1
	}
	st.Segments++
	base := seg * c.subs
	cn := 0
	for t := 0; t < c.subs; t++ {
		md := col.SubSegmentDelims(fw, t)
		if md == 0 {
			continue
		}
		st.Words += uint64(c.b)
		for md != 0 {
			s := bits.TrailingZeros64(md) / c.fWidth
			var key uint64
			eq := md
			for g := 0; g < c.b; g++ {
				x := c.gws[g][base+t]
				v := word.Field(x, c.tau, s)
				key = key<<uint(c.tau) | v
				eq &= word.EQDelims(x, v*c.ones, c.delim)
			}
			w := col.ScatterDelims(eq, t)
			j := 0
			for ; j < cn; j++ {
				if outP[j] == key {
					outW[j] |= w
					break
				}
			}
			if j == cn {
				outP[cn], outW[cn] = key, w
				cn++
			}
			md &^= eq
		}
	}
	return cn
}

// VBPHashPartitionRange banks per-code selection words of segments
// [segLo, segHi) into bank, discovering keys as a side effect. It is the
// hash-tier twin of VBPGroupPartitionRange: same traversal, same zone
// shortcuts and stats conventions, but an open-addressing bank with
// sparse run lists instead of the direct-mapped dense bank, so it scales
// to MaxHashGroups keys of any width.
func VBPHashPartitionRange(col *vbp.Column, f *bitvec.Bitmap, bank *HashBank, segLo, segHi int, st *GroupStats) error {
	k := col.K()
	pl := newVBPPlanes(col)
	var outP, outW [64]uint64
	for seg := segLo; seg < segHi; seg++ {
		fw := f.Word(seg) & word.LowMask(col.SegmentValues(seg))
		if fw == 0 {
			continue
		}
		cn := vbpSplitSeg(col, &pl, k, seg, fw, &outP, &outW, st)
		for i := 0; i < cn; i++ {
			if !bank.Bank(outP[i], int32(seg), outW[i]) {
				return ErrGroupCardinality
			}
		}
	}
	return nil
}

// HBPHashPartitionRange is the HBP twin of VBPHashPartitionRange.
func HBPHashPartitionRange(col *hbp.Column, f *bitvec.Bitmap, bank *HashBank, segLo, segHi int, st *GroupStats) error {
	c := newHBPSplitCtx(col)
	var outP, outW [64]uint64
	for seg := segLo; seg < segHi; seg++ {
		fw := segWindow(f, col, seg)
		if fw == 0 {
			continue
		}
		cn := hbpSplitSeg(col, &c, seg, fw, &outP, &outW, st)
		for i := 0; i < cn; i++ {
			if !bank.Bank(outP[i], int32(seg), outW[i]) {
				return ErrGroupCardinality
			}
		}
	}
	return nil
}

// VBPHashRefineRange refines an already-partitioned bank by one more
// grouping column: every (key, segment, word) entry splits into per-code
// words of col, banked into dst under the composite key key<<shift|code.
// Entries must already be in col's segmentation (see RewindowSegWords).
// Distinct source keys map to disjoint composite-key ranges, so dst's
// per-key runs stay ascending by segment.
func VBPHashRefineRange(col *vbp.Column, keys []uint64, ents [][]SegWord, shift uint, dst *HashBank, st *GroupStats) error {
	k := col.K()
	pl := newVBPPlanes(col)
	var outP, outW [64]uint64
	for ki, key := range keys {
		base := key << shift
		for _, e := range ents[ki] {
			cn := vbpSplitSeg(col, &pl, k, int(e.Seg), e.W, &outP, &outW, st)
			for i := 0; i < cn; i++ {
				if !dst.Bank(base|outP[i], e.Seg, outW[i]) {
					return ErrGroupCardinality
				}
			}
		}
	}
	return nil
}

// HBPHashRefineRange is the HBP twin of VBPHashRefineRange.
func HBPHashRefineRange(col *hbp.Column, keys []uint64, ents [][]SegWord, shift uint, dst *HashBank, st *GroupStats) error {
	c := newHBPSplitCtx(col)
	var outP, outW [64]uint64
	for ki, key := range keys {
		base := key << shift
		for _, e := range ents[ki] {
			cn := hbpSplitSeg(col, &c, int(e.Seg), e.W, &outP, &outW, st)
			for i := 0; i < cn; i++ {
				if !dst.Bank(base|outP[i], e.Seg, outW[i]) {
					return ErrGroupCardinality
				}
			}
		}
	}
	return nil
}
