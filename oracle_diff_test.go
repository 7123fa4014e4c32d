package bpagg_test

import (
	"fmt"
	"testing"

	"bpagg/internal/oracle/diff"
)

// TestOracleDifferentialSweep and TestShardedOracleSweep are the PR-gating
// differential sweep (DESIGN.md §11): one generator, one runner, every
// cell each case carries, against the naive oracle. The first runs each
// case's flat store shape — {fresh, rebuilt, reloaded} caches × {1, 8}
// threads × every route and query class, the Range/Window probes and SQL;
// the second runs the same cases' sharded shapes, one subtest per shard
// size. A failure names the exact cell and the case name embeds the
// generator seed — see README "Reproducing a divergence". The nightly
// oracle-soak experiment runs many seeds with the Deep profile.
func TestOracleDifferentialSweep(t *testing.T) {
	for _, c := range diff.Cases(diff.GenConfig{Seed: 1}) {
		c.Shards = []int{0}
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := diff.Check(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedOracleSweep is the sweep's sharded half: each case at each
// of its shard sizes, split and reloaded, against the same oracle the
// flat table answers to — so sharded-vs-flat identity follows
// transitively. Sharding is a physical layout choice; any detectable
// difference is a bug.
func TestShardedOracleSweep(t *testing.T) {
	for _, c := range diff.Cases(diff.GenConfig{Seed: 1}) {
		for _, s := range c.Shards {
			if s == 0 {
				continue
			}
			cs := c
			cs.Shards = []int{s}
			t.Run(fmt.Sprintf("%s/shard%d", c.Name, s), func(t *testing.T) {
				t.Parallel()
				if err := diff.Check(cs); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
