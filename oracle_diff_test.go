package bpagg_test

import (
	"testing"

	"bpagg/internal/oracle/diff"
)

// TestOracleDifferentialSweep is the PR-gating differential sweep: every
// generated adversarial case runs the full {fused, two-phase,
// reconstruct} × {fresh, rebuilt, reloaded} × {1, 8 threads} matrix for
// all aggregates and predicate forms against the naive oracle
// (DESIGN.md §11). A failure message names the exact matrix cell and the
// case name embeds the generator seed — see README "Reproducing a
// divergence".
func TestOracleDifferentialSweep(t *testing.T) {
	// One seed keeps the gating sweep inside its 30s budget; the nightly
	// oracle-soak experiment runs many seeds with the Deep profile.
	seeds := []int64{1}
	for _, seed := range seeds {
		for _, c := range diff.Cases(diff.GenConfig{Seed: seed}) {
			c := c
			t.Run(c.Name, func(t *testing.T) {
				t.Parallel()
				if err := diff.Check(c); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The high-cardinality grouped axis: direct vs hash vs legacy
		// partition tiers at G up to 65536, composite keys, and NULL
		// grouping keys, against the map-shaped scalar reference.
		for _, c := range diff.HighCardCases(diff.GenConfig{Seed: seed}) {
			c := c
			t.Run(c.Name, func(t *testing.T) {
				t.Parallel()
				if err := diff.CheckGrouped(c); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
