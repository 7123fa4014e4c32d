package bpagg_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bpagg"
	"bpagg/internal/oracle"
	"bpagg/internal/oracle/diff"
)

// FuzzOracleEquivalence lets the fuzzer drive the differential harness
// directly: it decodes an arbitrary byte string into a legal Case and
// demands the engine agree with the naive oracle in every cell the case
// carries. The decoder gives the layout, width, τ and one predicate; a
// shard size (shardB > 0) adds a sharded store next to the flat table, so
// sealed shards, single-row shards and non-divisible tails emerge from the
// corpus; keyB's low bit adds a grouping column of width 1 + keyB>>1 % 12
// (direct or hashed); rng > 0 adds the row range [rng&0xff, +rng>>8) and
// the Window shapes. Any corpus entry that fails is a real divergence —
// add it as a named regression test once fixed.
func FuzzOracleEquivalence(f *testing.F) {
	f.Add(byte(0), byte(8), byte(0), byte(2), byte(0), byte(0), uint16(0), uint64(100), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(byte(1), byte(64), byte(31), byte(5), byte(0), byte(0), uint16(0), ^uint64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(0), byte(64), byte(1), byte(0), byte(0), byte(0), uint16(0), uint64(1)<<63, make([]byte, 8*70))
	f.Add(byte(1), byte(31), byte(4), byte(7), byte(0), byte(0), uint16(0), uint64(12345), []byte{})
	// The sharded seeds, at shard sizes 4, 2, 71 and 1 (1 + (shardB-1) % 96).
	f.Add(byte(0), byte(8), byte(0), byte(2), byte(4), byte(0), uint16(0), uint64(100), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(byte(1), byte(64), byte(0), byte(5), byte(2), byte(0), uint16(0), ^uint64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(0), byte(64), byte(0), byte(0), byte(71), byte(0), uint16(0), uint64(1)<<63, make([]byte, 8*70))
	f.Add(byte(1), byte(31), byte(0), byte(7), byte(1), byte(0), uint16(0), uint64(12345), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6})
	// A grouped, ranged, sharded case.
	f.Add(byte(1), byte(12), byte(3), byte(4), byte(30), byte(13), uint16(40<<8|5), uint64(2000),
		bytes.Repeat([]byte{0x9d, 0x31, 0x07, 0xe2, 0x55, 0xa0, 0x3c, 0x71}, 150))
	f.Fuzz(func(t *testing.T, layoutB, kB, tauB, opB, shardB, keyB byte, rng uint16, a uint64, data []byte) {
		shardRows := 0
		if shardB > 0 {
			shardRows = 1 + int(shardB-1)%96
		}
		fuzzOracleCase(t, layoutB, kB, tauB, opB, shardRows, keyB, rng, a, data)
	})
}

// FuzzShardEquivalence keeps the sharded seeds under their own target:
// it decodes the same bytes as FuzzOracleEquivalence with no τ, key
// column or row range, and always adds a store of 1 + shardB%96 rows
// per shard, so sealed shards, single-row shards and non-divisible tails
// are fuzzed on every input.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(byte(0), byte(8), byte(2), byte(3), uint64(100), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(byte(1), byte(64), byte(5), byte(1), ^uint64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(0), byte(64), byte(0), byte(70), uint64(1)<<63, make([]byte, 8*70))
	f.Add(byte(1), byte(31), byte(7), byte(0), uint64(12345), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, layoutB, kB, opB, shardB byte, a uint64, data []byte) {
		fuzzOracleCase(t, layoutB, kB, 0, opB, 1+int(shardB)%96, 0, 0, a, data)
	})
}

// fuzzOracleCase is the one decoder behind both fuzz targets; shardRows
// > 0 adds a sharded store of that many rows per shard.
func fuzzOracleCase(t *testing.T, layoutB, kB, tauB, opB byte, shardRows int, keyB byte, rng uint16, a uint64, data []byte) {
	layout := bpagg.VBP
	if layoutB&1 == 1 {
		layout = bpagg.HBP
	}
	k := 1 + int(kB)%64
	maxTau := k
	if layout == bpagg.HBP && maxTau > 31 {
		maxTau = 31
	}
	mask := ^uint64(0) >> (64 - k)
	n := min(len(data)/8, 300)
	vals, keys := make([]uint64, n), make([]uint64, n)
	gk := 1 + int(keyB>>1)%12
	for i := range vals {
		raw := binary.LittleEndian.Uint64(data[i*8:])
		vals[i], keys[i] = raw&mask, raw>>17&(1<<gk-1)
	}

	ops := []oracle.Op{oracle.EQ, oracle.NE, oracle.LT, oracle.LE,
		oracle.GT, oracle.GE, oracle.Between, oracle.In}
	p := oracle.Pred{Op: ops[int(opB)%len(ops)], A: a & mask}
	switch p.Op {
	case oracle.Between:
		p.B = (a >> 7) & mask
	case oracle.In:
		p.List = []uint64{a & mask, (a >> 13) & mask}
	}

	c := diff.Case{
		Name:    "fuzz",
		Layout:  layout,
		K:       k,
		Tau:     int(tauB) % (maxTau + 1), // 0 = library default
		A:       vals,
		Preds:   []diff.PredSpec{{Col: "a", Pred: p}},
		Threads: []int{1, 3},
		Shards:  []int{0},
	}
	if shardRows > 0 {
		c.Shards = append(c.Shards, shardRows)
	}
	if keyB&1 == 1 {
		c.G, c.GK = keys, gk
	}
	if rng > 0 {
		lo := int(rng&0xff) % (n + 1)
		c.Ranges = [][2]int{{lo, lo + int(rng>>8)}}
	}
	if err := diff.Check(c); err != nil {
		t.Fatal(err)
	}
}
