package bench

import (
	"context"
	"math/rand"

	"bpagg/internal/bitvec"
	"bpagg/internal/nbp"
	"bpagg/internal/parallel"
	"bpagg/internal/tpch"
)

// Agg identifies the aggregate measured by the micro-benchmarks. The paper
// reports SUM, MIN/MAX (one curve — MAX mirrors MIN) and MEDIAN; COUNT is
// trivial and AVG is SUM plus COUNT.
type Agg int

// Micro-benchmark aggregates.
const (
	AggSum Agg = iota
	AggMinMax
	AggMedian
)

// String returns the paper's label for the aggregate.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggMinMax:
		return "MIN/MAX"
	case AggMedian:
		return "MEDIAN"
	default:
		return "?"
	}
}

// Aggs lists the measured aggregates in presentation order.
var Aggs = []Agg{AggSum, AggMinMax, AggMedian}

// Layouts lists both storage layouts in presentation order.
var Layouts = []tpch.Layout{tpch.VBP, tpch.HBP}

// WithSelectivity derives a workload sharing w's packed columns but with a
// fresh Bernoulli filter of the given selectivity.
func (w *Workload) WithSelectivity(sel float64, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	f := bitvec.New(w.N)
	for i := 0; i < w.N; i++ {
		if rng.Float64() < sel {
			f.Set(i)
		}
	}
	return &Workload{N: w.N, K: w.K, V: w.V, H: w.H, F: f}
}

// runBP returns a closure executing one bit-parallel aggregate evaluation.
func (w *Workload) runBP(layout tpch.Layout, agg Agg, o parallel.Options) func() {
	ctx := context.Background()
	median := (uint64(w.F.Count()) + 1) / 2
	switch {
	case layout == tpch.VBP && agg == AggSum:
		return func() { parallel.VBPSumCtx(ctx, w.V, w.F, o) }
	case layout == tpch.VBP && agg == AggMinMax:
		return func() { parallel.VBPMinCtx(ctx, w.V, w.F, o) }
	case layout == tpch.VBP && agg == AggMedian:
		return func() { parallel.VBPRankCtx(ctx, w.V, w.F, median, o) }
	case layout == tpch.HBP && agg == AggSum:
		return func() { parallel.HBPSumCtx(ctx, w.H, w.F, o) }
	case layout == tpch.HBP && agg == AggMinMax:
		return func() { parallel.HBPMinCtx(ctx, w.H, w.F, o) }
	default:
		return func() { parallel.HBPRankCtx(ctx, w.H, w.F, median, o) }
	}
}

// runNBP returns a closure executing one baseline aggregate evaluation.
func (w *Workload) runNBP(layout tpch.Layout, agg Agg, o nbp.Options) func() {
	var src interface {
		At(i int) uint64
		Len() int
	}
	if layout == tpch.VBP {
		src = w.V
	} else {
		src = w.H
	}
	switch agg {
	case AggSum:
		return func() { nbp.SumOpt(src, w.F, o) }
	case AggMinMax:
		return func() { nbp.MinOpt(src, w.F, o) }
	default:
		return func() { nbp.MedianOpt(src, w.F, o) }
	}
}

// MicroRow is one data point of Figures 5-7: the aggregation-phase cost of
// both methods under one parameter setting.
type MicroRow struct {
	Layout  tpch.Layout
	Agg     Agg
	Param   float64 // selectivity (Fig 5), value width (Fig 6) or tuples (Fig 7)
	NBPns   float64 // baseline ns per tuple
	BPns    float64 // bit-parallel ns per tuple
	Speedup float64 // NBPns / BPns
}

// Fig5 sweeps filter selectivity at fixed k and n (paper Figure 5),
// single-threaded.
func Fig5(cfg Config) []MicroRow {
	base := NewWorkload(cfg.N, cfg.K, cfg.Sel, cfg.Seed)
	sels := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0}
	var rows []MicroRow
	for _, sel := range sels {
		w := base.WithSelectivity(sel, cfg.Seed+int64(sel*1000))
		for _, layout := range Layouts {
			for _, agg := range Aggs {
				rows = append(rows, measureRow(cfg, w, layout, agg, sel))
			}
		}
	}
	return rows
}

// Fig6 sweeps the value width k at fixed selectivity and n (paper
// Figure 6), single-threaded.
func Fig6(cfg Config) []MicroRow {
	ks := []int{2, 5, 10, 15, 20, 25, 30, 40, 50}
	var rows []MicroRow
	for _, k := range ks {
		w := NewWorkload(cfg.N, k, cfg.Sel, cfg.Seed)
		for _, layout := range Layouts {
			for _, agg := range Aggs {
				rows = append(rows, measureRow(cfg, w, layout, agg, float64(k)))
			}
		}
	}
	return rows
}

// Fig7 sweeps the tuple count at fixed k and selectivity (paper Figure 7),
// single-threaded. Param carries n; NBPns/BPns stay per tuple so linear
// scaling shows as flat lines, and total time is Param * ns.
func Fig7(cfg Config) []MicroRow {
	var rows []MicroRow
	for mult := 1; mult <= 4; mult++ {
		n := cfg.N * mult
		w := NewWorkload(n, cfg.K, cfg.Sel, cfg.Seed)
		for _, layout := range Layouts {
			for _, agg := range Aggs {
				rows = append(rows, measureRow(cfg, w, layout, agg, float64(n)))
			}
		}
	}
	return rows
}

func measureRow(cfg Config, w *Workload, layout tpch.Layout, agg Agg, param float64) MicroRow {
	nbpNs := MeasureNsPerTuple(w.N, cfg.MinTime, w.runNBP(layout, agg, nbp.Options{}))
	bpNs := MeasureNsPerTuple(w.N, cfg.MinTime, w.runBP(layout, agg, parallel.Options{}))
	return MicroRow{
		Layout: layout, Agg: agg, Param: param,
		NBPns: nbpNs, BPns: bpNs, Speedup: nbpNs / bpNs,
	}
}

// Fig8Row is one bar group of Figure 8: the speedup of multi-threaded
// bit-parallel aggregation over the single-threaded baseline. The
// paper's SIMD bars are not reproduced: Go has no SIMD intrinsics.
type Fig8Row struct {
	Layout   tpch.Layout
	Agg      Agg
	SerialNs float64
	MT       float64 // serial ns / multi-threaded ns
}

// Fig8 measures the multi-threading speedup (paper Figure 8).
func Fig8(cfg Config) []Fig8Row {
	w := NewWorkload(cfg.N, cfg.K, cfg.Sel, cfg.Seed)
	var rows []Fig8Row
	for _, layout := range Layouts {
		for _, agg := range Aggs {
			serial := MeasureNsPerTuple(w.N, cfg.MinTime, w.runBP(layout, agg, parallel.Options{}))
			mt := MeasureNsPerTuple(w.N, cfg.MinTime, w.runBP(layout, agg, parallel.Options{Threads: cfg.Threads}))
			rows = append(rows, Fig8Row{Layout: layout, Agg: agg, SerialNs: serial, MT: serial / mt})
		}
	}
	return rows
}

// Table2Row is one column of Table II: per-query scan and aggregation
// costs for both methods, with the paper's improvement percentages.
type Table2Row struct {
	Query       string
	Selectivity float64
	ScanNs      float64 // bit-parallel filter scan, ns/tuple
	AggNBPNs    float64
	AggBPNs     float64
	AggAutoNs   float64 // optimizer policy: NBP below the crossover, BP above
	AggImprove  float64 // (NBP-BP)/NBP * 100
	AutoImprove float64 // (NBP-Auto)/NBP * 100
	TotalNBPNs  float64
	TotalBPNs   float64
	TotImprove  float64
}

// Table2 runs the nine TPC-H queries in one layout (paper Table II),
// multi-threaded on both methods.
func Table2(cfg Config, layout tpch.Layout) []Table2Row {
	var rows []Table2Row
	for _, q := range tpch.Queries() {
		inst := tpch.Build(q, layout, cfg.N, cfg.Seed)
		var f *bitvec.Bitmap
		scanNs := MeasureNsPerTuple(cfg.N, cfg.MinTime, func() { f = inst.Scan() })
		bpOpts := parallel.Options{Threads: cfg.Threads}
		nbpOpts := nbp.Options{Threads: cfg.Threads}
		nbpNs := MeasureNsPerTuple(cfg.N, cfg.MinTime, func() { inst.RunAggNBP(f, nbpOpts) })
		bpNs := MeasureNsPerTuple(cfg.N, cfg.MinTime, func() { inst.RunAggBP(f, bpOpts) })
		autoNs := MeasureNsPerTuple(cfg.N, cfg.MinTime, func() { inst.RunAggAuto(f, bpOpts, nbpOpts) })
		rows = append(rows, Table2Row{
			Query:       q.Name,
			Selectivity: q.Selectivity,
			ScanNs:      scanNs,
			AggNBPNs:    nbpNs,
			AggBPNs:     bpNs,
			AggAutoNs:   autoNs,
			AggImprove:  improvement(nbpNs, bpNs),
			AutoImprove: improvement(nbpNs, autoNs),
			TotalNBPNs:  scanNs + nbpNs,
			TotalBPNs:   scanNs + bpNs,
			TotImprove:  improvement(scanNs+nbpNs, scanNs+bpNs),
		})
	}
	return rows
}

func improvement(nbpCost, bpCost float64) float64 {
	if nbpCost == 0 {
		return 0
	}
	return (nbpCost - bpCost) / nbpCost * 100
}

// Sanity verifies on a small instance that both methods agree before a
// long measurement run; it returns false on any mismatch.
func Sanity(cfg Config) bool {
	for _, q := range tpch.Queries() {
		for _, layout := range Layouts {
			inst := tpch.Build(q, layout, 20000, cfg.Seed)
			f := inst.Scan()
			bp := inst.RunAggBP(f, parallel.Options{Threads: cfg.Threads})
			nb := inst.RunAggNBP(f, nbp.Options{Threads: cfg.Threads})
			for i := range bp {
				if bp[i] != nb[i] {
					return false
				}
			}
		}
	}
	// Micro workload cross-check.
	w := NewWorkload(50000, cfg.K, cfg.Sel, cfg.Seed)
	ctx := context.Background()
	if sv, err := parallel.VBPSumCtx(ctx, w.V, w.F, parallel.Options{}); err != nil || sv != nbp.Sum(w.V, w.F) {
		return false
	}
	if sh, err := parallel.HBPSumCtx(ctx, w.H, w.F, parallel.Options{}); err != nil || sh != nbp.Sum(w.H, w.F) {
		return false
	}
	mv, okv, err := parallel.VBPRankCtx(ctx, w.V, w.F, (uint64(w.F.Count())+1)/2, parallel.Options{})
	mn, okn := nbp.Median(w.V, w.F)
	return err == nil && mv == mn && okv == okn
}
