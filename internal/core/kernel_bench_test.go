package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// BenchmarkKernel is the core.agg / core.fused rung pair at kernel level:
// SUM, MIN and MAX over 2^20 uniform rows, their filter words read from a
// materialized bitmap or evaluated from a predicate over a selector column
// of the same window geometry, at 1/10/50/90 % selectivity, on VBP k ∈
// {4, 20} and HBP k ∈ {6, 14} (63- and 64-tuple windows). Uniform data
// keeps every zone undecided, so neither source is pruned or cache-served.
// `make kernel-bench` fixes -benchtime and -count; ns/row is per selected
// or rejected row alike.
func BenchmarkKernel(b *testing.B) {
	var v uint64
	const n = 1 << 20
	rng := rand.New(rand.NewSource(27))
	sel := make([]uint64, n)
	for i := range sel {
		sel[i] = uint64(rng.Intn(100))
	}
	for _, c := range []struct {
		layout string
		k, tau int
	}{{"vbp", 4, 4}, {"vbp", 20, 4}, {"hbp", 6, 6}, {"hbp", 14, 7}} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & word.LowMask(c.k)
		}
		var (
			vc, vs *vbp.Column
			hc, hs *hbp.Column
		)
		if c.layout == "vbp" {
			vc, vs = vbp.Pack(vals, c.k, c.tau), vbp.Pack(sel, 7, 4)
		} else {
			hc, hs = hbp.Pack(vals, c.k, c.tau), hbp.Pack(sel, 7, c.tau)
		}
		for _, pct := range []uint64{1, 10, 50, 90} {
			p := scan.Predicate{Op: scan.LT, A: pct}
			f := bitvec.New(n)
			for i, s := range sel {
				if s < pct {
					f.Set(i)
				}
			}
			var preds []scan.WindowPred
			if vc != nil {
				preds = []scan.WindowPred{scan.NewVBPWindowPred(vs, p)}
			} else {
				preds = []scan.WindowPred{scan.NewHBPWindowPred(hs, p)}
			}
			for _, agg := range []string{"sum", "min", "max"} {
				wantMin := agg == "min"
				run := map[string]func(){
					"bitmap": func() {
						switch {
						case agg == "sum" && vc != nil:
							v = VBPSum(vc, f)
						case agg == "sum":
							v = HBPSum(hc, f)
						case vc != nil && wantMin:
							v, _ = VBPMin(vc, f)
						case vc != nil:
							v, _ = VBPMax(vc, f)
						case wantMin:
							v, _ = HBPMin(hc, f)
						default:
							v, _ = HBPMax(hc, f)
						}
					},
					"preds": func() {
						var st FusedStats
						switch {
						case agg == "sum" && vc != nil:
							v, _ = VBPFusedSumCount(vc, preds, 0, vc.NumSegments(), &st)
						case agg == "sum":
							v, _ = HBPFusedSumCount(hc, preds, 0, hc.NumSegments(), &st)
						case vc != nil:
							temp := NewVBPExtremeTemp(c.k, wantMin)
							VBPFusedFoldExtreme(vc, preds, temp, wantMin, 0, vc.NumSegments(), &st)
							v = VBPFinishExtreme([][]uint64{temp}, c.k, wantMin)
						default:
							temp := NewHBPExtremeTemp(hc, wantMin)
							HBPFusedFoldExtreme(hc, preds, temp, wantMin, 0, hc.NumSegments(), &st)
							v = HBPFinishExtreme(hc, [][]uint64{temp}, wantMin)
						}
					},
				}
				for _, src := range []string{"bitmap", "preds"} {
					name := fmt.Sprintf("%s/k=%d/%s/sel=%d%%/%s", c.layout, c.k, agg, pct, src)
					b.Run(name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							run[src]()
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
						kernelSink += v
					})
				}
			}
		}
	}
}

// kernelSink keeps the measured calls' results alive.
var kernelSink uint64
