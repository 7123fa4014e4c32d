package tpch

import (
	"math"
	"testing"

	"bpagg/internal/nbp"
	"bpagg/internal/parallel"
)

func TestQuerySpecsMatchPaperSelectivities(t *testing.T) {
	// The per-filter selectivities must multiply out to the published
	// overall selectivity of Table II (within cutoff-rounding tolerance).
	want := map[string]float64{
		"Q1": 0.986, "Q6": 0.019, "Q7": 0.301, "Q9": 0.053, "Q10": 0.019,
		"Q11": 0.041, "Q14": 0.012, "Q15": 0.037, "Q20": 0.150,
	}
	qs := Queries()
	if len(qs) != 9 {
		t.Fatalf("got %d queries, want 9", len(qs))
	}
	for _, q := range qs {
		if q.Selectivity != want[q.Name] {
			t.Errorf("%s: declared selectivity %v, paper says %v", q.Name, q.Selectivity, want[q.Name])
		}
		prod := 1.0
		for _, fs := range q.Filters {
			prod *= fs.Sel
		}
		if math.Abs(prod-q.Selectivity)/q.Selectivity > 0.02 {
			t.Errorf("%s: filter product %v, want %v", q.Name, prod, q.Selectivity)
		}
		if len(q.Aggs) == 0 {
			t.Errorf("%s: no aggregates", q.Name)
		}
	}
}

func TestRealizedSelectivity(t *testing.T) {
	const n = 200000
	for _, q := range Queries() {
		for _, layout := range []Layout{VBP, HBP} {
			inst := Build(q, layout, n, 7)
			f := inst.Scan()
			got := float64(f.Count()) / float64(n)
			// Bernoulli tolerance: generous absolute + relative band.
			tol := 0.01 + 0.12*q.Selectivity
			if math.Abs(got-q.Selectivity) > tol {
				t.Errorf("%s %v: realized selectivity %f, want %f ± %f",
					q.Name, layout, got, q.Selectivity, tol)
			}
		}
	}
}

func TestBPAndNBPAgreeOnEveryQuery(t *testing.T) {
	const n = 30000
	for _, q := range Queries() {
		for _, layout := range []Layout{VBP, HBP} {
			inst := Build(q, layout, n, 11)
			f := inst.Scan()
			bp := inst.RunAggBP(f, parallel.Options{})
			bpMT := inst.RunAggBP(f, parallel.Options{Threads: 4})
			nbpRes := inst.RunAggNBP(f, nbp.Options{Threads: 2})
			for i := range bp {
				if bp[i] != nbpRes[i] {
					t.Errorf("%s %v agg %s: BP %+v, NBP %+v",
						q.Name, layout, q.Aggs[i].Name, bp[i], nbpRes[i])
				}
				if bp[i] != bpMT[i] {
					t.Errorf("%s %v agg %s: serial %+v, MT %+v",
						q.Name, layout, q.Aggs[i].Name, bp[i], bpMT[i])
				}
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	q := Queries()[1] // Q6
	a := Build(q, VBP, 5000, 42)
	b := Build(q, VBP, 5000, 42)
	fa, fb := a.Scan(), b.Scan()
	if fa.Count() != fb.Count() {
		t.Error("same seed produced different filters")
	}
	ra := a.RunAggBP(fa, parallel.Options{})
	rb := b.RunAggBP(fb, parallel.Options{})
	for i := range ra {
		if ra[i] != rb[i] {
			t.Error("same seed produced different aggregates")
		}
	}
	c := Build(q, VBP, 5000, 43)
	if fc := c.Scan(); fc.Count() == fa.Count() {
		// Extremely unlikely to collide exactly; treat as suspicious.
		t.Log("different seeds produced identical filter counts (possible but unlikely)")
	}
}

func TestNoFilterQueryScansAll(t *testing.T) {
	q := Query{Name: "QX", Selectivity: 1, Aggs: []AggSpec{{"s", Sum, 8}}}
	inst := Build(q, HBP, 1000, 3)
	f := inst.Scan()
	if f.Count() != 1000 {
		t.Errorf("filterless scan selected %d of 1000", f.Count())
	}
}
