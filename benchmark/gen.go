package main

import "bpagg"

// splitmix64 is the benchmark's only source of randomness: a seed fully
// determines every generated column.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// colDef is one column of a workload's schema. step > 0 makes the column
// ascending: row i holds i*step plus a random offset below step, so row
// position and value track each other (the time-ordered key of a log).
type colDef struct {
	name   string
	bits   int
	layout bpagg.Layout
	step   int
}

// batchRows is the unit every table is loaded and appended in.
const batchRows = 4096

// genColumn fills rows values for def starting at row position first.
func genColumn(def colDef, rng *splitmix64, first, rows int) []uint64 {
	v := make([]uint64, rows)
	if def.step > 0 {
		for i := range v {
			v[i] = uint64(first+i)*uint64(def.step) + rng.next()%uint64(def.step)
		}
		return v
	}
	shift := 64 - uint(def.bits)
	for i := range v {
		v[i] = rng.next() >> shift
	}
	return v
}

// inputs is everything a workload reads: plain slices for the oracle and
// the same data cut into load batches for the engine.
type inputs struct {
	rows    int
	cols    map[string][]uint64
	batches []map[string][]uint64
}

// genInputs generates rows rows of every column. Each column draws from
// its own stream (seed mixed with the column index), so adding a column
// to a schema leaves the others unchanged.
func genInputs(defs []colDef, rows int, seed uint64) *inputs {
	in := &inputs{rows: rows, cols: make(map[string][]uint64, len(defs))}
	for i, d := range defs {
		rng := splitmix64(seed*0x100 + uint64(i))
		in.cols[d.name] = genColumn(d, &rng, 0, rows)
	}
	in.batches = cutBatches(defs, in.cols, rows)
	return in
}

func cutBatches(defs []colDef, cols map[string][]uint64, rows int) []map[string][]uint64 {
	var out []map[string][]uint64
	for lo := 0; lo < rows; lo += batchRows {
		hi := min(lo+batchRows, rows)
		b := make(map[string][]uint64, len(defs))
		for _, d := range defs {
			b[d.name] = cols[d.name][lo:hi]
		}
		out = append(out, b)
	}
	return out
}

// columnHash is an FNV-1a digest of a column, the generator's
// determinism witness.
func columnHash(v []uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range v {
		for s := uint(0); s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}
