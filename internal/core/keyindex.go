package core

import "math/bits"

// The key index of the grouped partition (DESIGN.md §12): the one part of
// GROUP BY that depends on the key width. The partition's last step maps
// every packed key it emits to a dense slot; each worker owns one index,
// and the parallel driver remaps the workers' slots to sorted-key order,
// which keeps grouped results bit-identical across thread counts.

// DirectKeyBits is the widest packed key a KeyIndex looks up in a
// direct-mapped table (2^10 int32 slots, 4 KiB); wider keys hash.
const DirectKeyBits = 10

// MaxHashGroups bounds the distinct keys a partition will discover before
// giving up. Past this cardinality per-group state (keys, counts, 128-bit
// accumulators) dominates the working set; the limit is an engine ceiling,
// not a table capacity — a hashed index grows incrementally up to it.
const MaxHashGroups = 1 << 20

// KeyIndex maps packed keys to slots 0, 1, 2, … in discovery order; Keys
// holds the key of each slot. A packed width of at most DirectKeyBits
// indexes table by the key itself; wider keys use open addressing —
// linear probing over a power-of-two table (Fibonacci hashing picks the
// home position), doubling at 50% load. Probes counts position
// inspections and Growths table doublings, the raw material of the
// HashProbes/HashGrowths ExecStats; a direct index leaves both zero.
type KeyIndex struct {
	Keys    []uint64
	Probes  uint64
	Growths uint64
	table   []int32 // position → slot + 1; 0 = empty
	shift   uint    // 64 - log2(len(table)); 0 marks a direct index
	limit   int
}

// keyIndexMinCap is a hashed index's initial table size; small enough
// that a low-cardinality partition stays cache-resident, large enough that
// typical segments insert without growing.
const keyIndexMinCap = 64

// fibMul is the 64-bit Fibonacci hashing multiplier (2^64 / φ): the high
// bits of key*fibMul spread consecutive dictionary codes — the common
// case — across the table instead of clustering them.
const fibMul = 0x9E3779B97F4A7C15

// NewKeyIndex returns an empty index over keys of the given packed width
// that will refuse the limit+1-th distinct key. Callers pass
// MaxHashGroups in production; tests pass tiny budgets to reach
// ErrGroupCardinality cheaply.
func NewKeyIndex(width, limit int) *KeyIndex {
	if width <= DirectKeyBits {
		return &KeyIndex{table: make([]int32, 1<<uint(width)), limit: limit}
	}
	return &KeyIndex{
		table: make([]int32, keyIndexMinCap),
		shift: 64 - uint(bits.TrailingZeros64(keyIndexMinCap)),
		limit: limit,
	}
}

// find returns key's table position: the one holding its slot, or the
// empty one it would take.
func (x *KeyIndex) find(key uint64) uint64 {
	if x.shift == 0 {
		return key
	}
	mask := uint64(len(x.table) - 1)
	i := (key * fibMul) >> x.shift
	for {
		x.Probes++
		if s := x.table[i]; s == 0 || x.Keys[s-1] == key {
			return i
		}
		i = (i + 1) & mask
	}
}

// grow doubles a hashed table and rehashes every key.
func (x *KeyIndex) grow() {
	x.Growths++
	old := x.table
	x.table = make([]int32, len(old)*2)
	keys := make([]uint64, len(x.Keys), len(old)) // room for every key the table takes before it grows again
	copy(keys, x.Keys)
	x.Keys = keys

	x.shift--
	mask := uint64(len(x.table) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := (x.Keys[s-1] * fibMul) >> x.shift
		for x.table[i] != 0 {
			i = (i + 1) & mask
		}
		x.table[i] = s
	}
}

// Cap returns how many slots the index holds before its table grows: the
// key space of a direct index, half the table of a hashed one. It only
// grows, by doubling, so state kept per slot can grow with it.
func (x *KeyIndex) Cap() int {
	if x.shift == 0 {
		return len(x.table)
	}
	return len(x.table) / 2
}

// Slot returns key's slot, discovering the key on first use. It reports
// false when the index is at its key budget — the partition's
// ErrGroupCardinality signal.
func (x *KeyIndex) Slot(key uint64) (int32, bool) {
	i := x.find(key)
	if s := x.table[i]; s != 0 {
		return s - 1, true
	}
	if len(x.Keys) >= x.limit {
		return 0, false
	}
	if x.shift != 0 && 2*(len(x.Keys)+1) > len(x.table) {
		x.grow()
		i = x.find(key)
	}
	x.Keys = append(x.Keys, key)
	x.table[i] = int32(len(x.Keys))
	return int32(len(x.Keys) - 1), true
}
