package bench

import (
	"fmt"
	"io"
	"time"

	"bpagg/internal/oracle/diff"
)

// OracleSoak runs the differential oracle sweep (internal/oracle/diff)
// over several seeds with the Deep generator profile — wider bit-width,
// τ, size, and predicate coverage than the PR-gating sweep. Each case runs
// every cell it carries through the one Check, on the flat table and on
// its most adversarial shard size (the last of its sizes: for a small
// case the fixed non-divisible one). It is the nightly complement to
// TestOracleDifferentialSweep and is deliberately not part of the "all"
// experiment set: it validates correctness, not performance. Returns the
// total number of divergences found; every divergence prints with its
// case name, which embeds the seed needed to replay it (README
// "Reproducing a divergence").
func OracleSoak(w io.Writer, startSeed int64, seeds int) int {
	total := 0
	for s := int64(0); s < int64(seeds); s++ {
		seed := startSeed + s
		cases := diff.Cases(diff.GenConfig{Seed: seed, Deep: true})
		start := time.Now()
		bad := 0
		for _, c := range cases {
			c.Shards = []int{0, c.Shards[len(c.Shards)-1]}
			if err := diff.Check(c); err != nil {
				bad++
				fmt.Fprintf(w, "DIVERGENCE %s:\n  %v\n", c.Name, err)
			}
		}
		total += bad
		fmt.Fprintf(w, "oracle-soak seed %d: %d cases, %d divergences [%v]\n",
			seed, len(cases), bad, time.Since(start).Round(time.Millisecond))
	}
	return total
}
