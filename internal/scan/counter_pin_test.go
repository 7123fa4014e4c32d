package scan

import (
	"fmt"
	"sort"
	"testing"

	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
)

// The counter pin: the scan kernels may change how many instructions a
// compared word costs, never which words are compared. pinned holds the
// work counters of the generic three-lane scan loops (the commit before
// the op-specialised kernels), recorded by running pinCases there; the
// test asserts the current kernels report the same numbers through the
// two-phase scans and through WindowPred.Decide/Eval.

const (
	pinK = 12
	pinN = 64*63 + 37 // ragged last segment at every window width below
)

// pinCounters is {WordsCompared, SegmentsScanned, SegmentsPrunedNone,
// SegmentsPrunedAll}.
type pinCounters [4]uint64

func countersOf(es metrics.ExecStats) pinCounters {
	return pinCounters{es.WordsCompared, es.SegmentsScanned, es.SegmentsPrunedNone, es.SegmentsPrunedAll}
}

// pinData returns the uniform column values and their sorted copy.
func pinData() (uniform, sorted []uint64) {
	uniform = make([]uint64, pinN)
	x := uint64(15)
	for i := range uniform {
		x = x*6364136223846793005 + 1442695040888963407
		uniform[i] = x >> (64 - pinK)
	}
	sorted = append([]uint64(nil), uniform...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return uniform, sorted
}

func pinPredicates(uniform []uint64) []Predicate {
	return []Predicate{
		{Op: EQ, A: uniform[100]}, {Op: NE, A: uniform[100]},
		{Op: LT, A: 1000}, {Op: LE, A: 1000},
		{Op: GT, A: 3000}, {Op: GE, A: 3000},
		{Op: Between, A: 1000, B: 3000},
	}
}

// windowCounters drives a WindowPred the way core's fused filter source does for a
// single predicate.
func windowCounters(w WindowPred) pinCounters {
	var es metrics.ExecStats
	for win := 0; win < w.NumWindows(); win++ {
		if none, all, ok := w.Decide(win); ok && none {
			es.SegmentsPrunedNone++
			continue
		} else if ok && all {
			es.SegmentsPrunedAll++
			continue
		}
		es.SegmentsScanned++
		_, words := w.Eval(win)
		es.WordsCompared += words
	}
	return countersOf(es)
}

// pinCases evaluates every (data, layout, op) case and calls visit with
// the case name and the counters of both paths.
func pinCases(visit func(name string, twoPhase, fused pinCounters)) {
	uniform, sorted := pinData()
	for _, d := range []struct {
		name string
		vals []uint64
	}{{"uniform", uniform}, {"sorted", sorted}} {
		vcol := vbp.Pack(d.vals, pinK, 4)
		for _, p := range pinPredicates(uniform) {
			var es metrics.ExecStats
			VBPStats(vcol, p, &es)
			visit(fmt.Sprintf("%s/vbp4/%s", d.name, p.Op), countersOf(es), windowCounters(NewVBPWindowPred(vcol, p)))
		}
		// tau 6: two groups, 63-tuple segments; tau 12: one group;
		// tau 3: four groups, 64-tuple segments.
		for _, tau := range []int{6, 12, 3} {
			hcol := hbp.Pack(d.vals, pinK, tau)
			for _, p := range pinPredicates(uniform) {
				var es metrics.ExecStats
				HBPStats(hcol, p, &es)
				visit(fmt.Sprintf("%s/hbp%d/%s", d.name, tau, p.Op), countersOf(es), windowCounters(NewHBPWindowPred(hcol, p)))
			}
		}
	}
}

func TestScanCounterPin(t *testing.T) {
	seen := 0
	pinCases(func(name string, twoPhase, fused pinCounters) {
		seen++
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pinned counters", name)
			return
		}
		if twoPhase != want {
			t.Errorf("%s two-phase: {words, scanned, none, all} = %v, pinned %v", name, twoPhase, want)
		}
		if fused != want {
			t.Errorf("%s WindowPred: {words, scanned, none, all} = %v, pinned %v", name, fused, want)
		}
	})
	if seen != len(pinned) {
		t.Errorf("%d cases evaluated, %d pinned", seen, len(pinned))
	}
}

// pinned was recorded from the generic three-lane loops; see the file comment.
var pinned = map[string]pinCounters{
	"uniform/vbp4/=":        {588, 64, 0, 0},
	"uniform/vbp4/<>":       {588, 64, 0, 0},
	"uniform/vbp4/<":        {568, 64, 0, 0},
	"uniform/vbp4/<=":       {568, 64, 0, 0},
	"uniform/vbp4/>":        {560, 64, 0, 0},
	"uniform/vbp4/>=":       {560, 64, 0, 0},
	"uniform/vbp4/BETWEEN":  {608, 64, 0, 0},
	"uniform/hbp6/=":        {514, 65, 0, 0},
	"uniform/hbp6/<>":       {514, 65, 0, 0},
	"uniform/hbp6/<":        {519, 65, 0, 0},
	"uniform/hbp6/<=":       {519, 65, 0, 0},
	"uniform/hbp6/>":        {512, 65, 0, 0},
	"uniform/hbp6/>=":       {512, 65, 0, 0},
	"uniform/hbp6/BETWEEN":  {571, 65, 0, 0},
	"uniform/hbp12/=":       {1027, 79, 0, 0},
	"uniform/hbp12/<>":      {1027, 79, 0, 0},
	"uniform/hbp12/<":       {1027, 79, 0, 0},
	"uniform/hbp12/<=":      {1027, 79, 0, 0},
	"uniform/hbp12/>":       {1027, 79, 0, 0},
	"uniform/hbp12/>=":      {1027, 79, 0, 0},
	"uniform/hbp12/BETWEEN": {1027, 79, 0, 0},
	"uniform/hbp3/=":        {541, 64, 0, 0},
	"uniform/hbp3/<>":       {541, 64, 0, 0},
	"uniform/hbp3/<":        {552, 64, 0, 0},
	"uniform/hbp3/<=":       {552, 64, 0, 0},
	"uniform/hbp3/>":        {539, 64, 0, 0},
	"uniform/hbp3/>=":       {539, 64, 0, 0},
	"uniform/hbp3/BETWEEN":  {623, 64, 0, 0},
	"sorted/vbp4/=":         {12, 1, 63, 0},
	"sorted/vbp4/<>":        {12, 1, 0, 63},
	"sorted/vbp4/<":         {12, 1, 48, 15},
	"sorted/vbp4/<=":        {12, 1, 48, 15},
	"sorted/vbp4/>":         {12, 1, 47, 16},
	"sorted/vbp4/>=":        {12, 1, 47, 16},
	"sorted/vbp4/BETWEEN":   {24, 2, 31, 31},
	"sorted/hbp6/=":         {14, 1, 64, 0},
	"sorted/hbp6/<>":        {14, 1, 0, 64},
	"sorted/hbp6/<":         {0, 0, 49, 16},
	"sorted/hbp6/<=":        {0, 0, 49, 16},
	"sorted/hbp6/>":         {14, 1, 47, 17},
	"sorted/hbp6/>=":        {14, 1, 47, 17},
	"sorted/hbp6/BETWEEN":   {14, 1, 33, 31},
	"sorted/hbp12/=":        {13, 1, 78, 0},
	"sorted/hbp12/<>":       {13, 1, 0, 78},
	"sorted/hbp12/<":        {13, 1, 59, 19},
	"sorted/hbp12/<=":       {13, 1, 59, 19},
	"sorted/hbp12/>":        {13, 1, 57, 21},
	"sorted/hbp12/>=":       {13, 1, 57, 21},
	"sorted/hbp12/BETWEEN":  {26, 2, 40, 37},
	"sorted/hbp3/=":         {16, 1, 63, 0},
	"sorted/hbp3/<>":        {16, 1, 0, 63},
	"sorted/hbp3/<":         {16, 1, 48, 15},
	"sorted/hbp3/<=":        {16, 1, 48, 15},
	"sorted/hbp3/>":         {15, 1, 47, 16},
	"sorted/hbp3/>=":        {15, 1, 47, 16},
	"sorted/hbp3/BETWEEN":   {31, 2, 31, 31},
}
