package core

import (
	"reflect"
	"testing"
)

// TestHBPGroupRankChunks pins the grouped descent's chunk budget: one
// group chunks as a single-column descent does, and the groups' bins
// together never exceed 2^MaxHistBits (at least two per group) — 4096
// groups over a 16-bit bit-group take 4-bit chunks.
func TestHBPGroupRankChunks(t *testing.T) {
	for _, tc := range []struct {
		tau    int
		u      uint64
		groups int
		want   int
	}{{16, 1 << 30, 1, 16}, {6, 1 << 20, 16, 6}, {16, 1 << 30, 4096, 4}, {16, 100, 4096, 4}, {8, 1 << 20, 1 << 20, 1}} {
		chunks, hb := HBPGroupRankChunks(tc.tau, tc.u, tc.groups)
		if hb != tc.want || tc.groups == 1 && !reflect.DeepEqual(chunks, hbpChunksWidth(tc.tau, hb)) {
			t.Errorf("tau %d, u %d, %d groups: width %d, want %d", tc.tau, tc.u, tc.groups, hb, tc.want)
		}
		if single, shb := HBPRankChunks(tc.tau, tc.u); tc.groups == 1 && (shb != hb || !reflect.DeepEqual(single, chunks)) {
			t.Errorf("tau %d, u %d: one group chunks %v, a single-column descent %v", tc.tau, tc.u, chunks, single)
		}
	}
}
