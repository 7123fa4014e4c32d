package diff

import (
	"slices"
	"strings"
	"testing"

	"bpagg"
	"bpagg/internal/oracle"
)

// TestValidateRejectsMismatchedColumns pins the harness's own input
// checking: auxiliary columns must match the aggregate column row for
// row, including the appended tails.
func TestValidateRejectsMismatchedColumns(t *testing.T) {
	base := Case{Name: "v", Layout: bpagg.VBP, K: 8, A: []uint64{1, 2, 3}}

	c := base
	c.ANulls = []bool{true}
	if err := Check(c); err == nil || !strings.Contains(err.Error(), "ANulls") {
		t.Errorf("short ANulls: err = %v", err)
	}

	c = base
	c.B = []uint64{1}
	if err := Check(c); err == nil || !strings.Contains(err.Error(), "B length") {
		t.Errorf("short B: err = %v", err)
	}

	c = base
	c.G = []uint64{1, 2}
	if err := Check(c); err == nil || !strings.Contains(err.Error(), "G length") {
		t.Errorf("short G: err = %v", err)
	}

	c = base
	c.B = []uint64{4, 5, 6}
	c.ExtraA = []uint64{9}
	if err := Check(c); err == nil || !strings.Contains(err.Error(), "ExtraB") {
		t.Errorf("missing ExtraB: err = %v", err)
	}
}

// TestCheckDetectsDivergence feeds the harness a case whose oracle
// expectation cannot match (a predicate constant that does not fit the
// engine column is the easiest controlled divergence: the engine panics,
// the oracle answers), proving failures actually surface.
func TestCheckDetectsDivergence(t *testing.T) {
	c := Case{
		Name:   "must-fail",
		Layout: bpagg.VBP,
		K:      4,
		A:      []uint64{1, 2, 3},
		Preds:  []PredSpec{{Col: "a", Pred: oracle.Pred{Op: oracle.LE, A: 1 << 20}}},
	}
	err := Check(c)
	if err == nil {
		t.Fatal("Check passed a case whose predicate constant exceeds the column width")
	}
	if !strings.Contains(err.Error(), "must-fail") {
		t.Errorf("failure does not name the case: %v", err)
	}
}

// TestCasesDeterministic: the generator must be a pure function of its
// seed so a failing case name replays exactly.
func TestCasesDeterministic(t *testing.T) {
	a := Cases(GenConfig{Seed: 42})
	b := Cases(GenConfig{Seed: 42})
	if len(a) != len(b) {
		t.Fatalf("case counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].A) != len(b[i].A) {
			t.Fatalf("case %d differs: %s vs %s", i, a[i].Name, b[i].Name)
		}
		for j := range a[i].A {
			if a[i].A[j] != b[i].A[j] {
				t.Fatalf("case %s: data differs at %d", a[i].Name, j)
			}
		}
	}
	if len(Cases(GenConfig{Seed: 43})) == 0 {
		t.Fatal("seed 43 generated no cases")
	}
}

// sweepCell is one (store shape, row range, key tier, query class) cell.
type sweepCell struct{ shape, rng, tier, class string }

// sweepSkip is a set of cells the generator leaves out on purpose.
type sweepSkip struct {
	match  func(sweepCell) bool
	reason string
}

// sweepSkips are the skipped cells with the reason; every other cell of
// the product must be emitted.
var sweepSkips = []sweepSkip{
	{func(c sweepCell) bool { return c.tier == "none" && c.class == "grouped" }, "no key, no GROUP BY"},
	{func(c sweepCell) bool { return c.tier == "grown" && c.rng == "ranged" }, "cost: a grown-tier case is big (≥ 2^16 rows), and a big case probes no row range"},
	{func(c sweepCell) bool { return c.tier == "grown" && c.class == "scalar" }, "cost: a big case runs no scalar battery"},
	{func(c sweepCell) bool { return c.tier == "grown" && c.shape == "one-shard" }, "cost: a big case's sharded shape is one three-way split"},
}

// cellsOf lists the cells a case runs.
func cellsOf(c Case) []sweepCell {
	tier := "none"
	if c.G != nil {
		keys := map[[2]uint64]bool{}
		for i := range c.G {
			key := [2]uint64{c.G[i]}
			if c.G2 != nil {
				key[1] = c.G2[i]
			}
			if c.GNulls == nil || !c.GNulls[i] {
				keys[key] = true
			}
		}
		switch {
		case c.tier() == bpagg.GroupDirect:
			tier = "direct"
		case len(keys) > 1<<15:
			tier = "grown" // the hashed index's table grows past 2^16 slots
		default:
			tier = "hashed"
		}
	}
	var shapes, rngs, classes []string
	for _, s := range c.Shards {
		switch {
		case s == 0:
			shapes = append(shapes, "flat")
		case s >= c.rows():
			shapes = append(shapes, "one-shard")
		default:
			shapes = append(shapes, "sharded")
		}
	}
	rngs = append(rngs, "none")
	if len(c.Ranges) > 0 {
		rngs = append(rngs, "ranged")
	}
	classes = append(classes, "ranked")
	if !c.big {
		classes = append(classes, "scalar")
	}
	if c.G != nil {
		classes = append(classes, "grouped")
	}
	var out []sweepCell
	for _, sh := range shapes {
		for _, r := range rngs {
			for _, cl := range classes {
				out = append(out, sweepCell{sh, r, tier, cl})
			}
		}
	}
	return out
}

// TestCasesCoverCriticalAxes: the short profile must always include the
// overflow widths, both layouts, the crafted adversaries, and every
// (store shape, row range, key tier, query class) cell but the listed
// skips.
func TestCasesCoverCriticalAxes(t *testing.T) {
	cases := Cases(GenConfig{Seed: 1})
	sawK64 := false
	sawHBP, sawVBP := false, false
	crafted := map[string]bool{}
	emitted := map[sweepCell]bool{}
	for _, c := range cases {
		if c.K == 64 {
			sawK64 = true
		}
		if c.Layout == bpagg.HBP {
			sawHBP = true
		} else {
			sawVBP = true
		}
		for _, tag := range []string{"sum-wrap-64", "groupby-overflow", "nulls-ge", "tau-cap-full-seg", "groupby-2p64-", "groupby-2p64m1-"} {
			if strings.Contains(c.Name, tag) {
				crafted[tag] = true
			}
		}
		for _, cell := range cellsOf(c) {
			emitted[cell] = true
		}
	}
	if !sawK64 || !sawHBP || !sawVBP {
		t.Fatalf("axes missing: k64=%v hbp=%v vbp=%v", sawK64, sawHBP, sawVBP)
	}
	for _, tag := range []string{"sum-wrap-64", "groupby-overflow", "nulls-ge", "tau-cap-full-seg", "groupby-2p64-", "groupby-2p64m1-"} {
		if !crafted[tag] {
			t.Errorf("crafted case %q missing from sweep", tag)
		}
	}
	n := 0
	for _, shape := range []string{"flat", "one-shard", "sharded"} {
		for _, rng := range []string{"none", "ranged"} {
			for _, tier := range []string{"none", "direct", "hashed", "grown"} {
				for _, class := range []string{"scalar", "grouped", "ranked"} {
					cell := sweepCell{shape, rng, tier, class}
					skipped := slices.ContainsFunc(sweepSkips, func(s sweepSkip) bool { return s.match(cell) })
					switch {
					case !skipped && !emitted[cell]:
						t.Errorf("cell %+v is not emitted", cell)
					case !skipped:
						n++
					}
				}
			}
		}
	}
	if n != 52 {
		t.Errorf("%d cells emitted, want 52: the 72-cell product less the 20 in sweepSkips", n)
	}
}
