package core

import (
	"fmt"
	"math/rand"
	"slices"
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
// keeps every predicate zone undecided, so neither source is zone-pruned
// or cache-served, but MIN and MAX bound-prune most windows once their
// prune block holds a small (large) value. The no-prune cells — MIN of
// the same values sorted descending (min-desc) and MAX sorted ascending
// (max-asc), on VBP k = 20 and HBP k = 14 — improve on every window and
// prune none: they time the paper's fold (Alg. 2 and 5) plus the zone
// check. `make kernel-bench` fixes -benchtime and -count; ns/row is per
// selected or rejected row alike.
func BenchmarkKernel(b *testing.B) {
	var v uint64
	const n = 1 << 20
	rng := rand.New(rand.NewSource(27))
	sel := make([]uint64, n)
	for i := range sel {
		sel[i] = uint64(rng.Intn(100))
	}
	for _, c := range []struct {
		layout  string
		k, tau  int
		noPrune bool
	}{{"vbp", 4, 4, false}, {"vbp", 20, 4, true}, {"hbp", 6, 6, false}, {"hbp", 14, 7, true}} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & word.LowMask(c.k)
		}
		type kernelCol struct {
			v *vbp.Column
			h *hbp.Column
		}
		pack := func(vals []uint64) kernelCol {
			if c.layout == "vbp" {
				return kernelCol{v: vbp.Pack(vals, c.k, c.tau)}
			}
			return kernelCol{h: hbp.Pack(vals, c.k, c.tau)}
		}
		type cell struct {
			agg, order string
			col        kernelCol
		}
		uni := pack(vals)
		cells := []cell{{"sum", "", uni}, {"min", "", uni}, {"max", "", uni}}
		if c.noPrune {
			asc := slices.Clone(vals)
			slices.Sort(asc)
			desc := slices.Clone(asc)
			slices.Reverse(desc)
			cells = append(cells, cell{"min", "-desc", pack(desc)}, cell{"max", "-asc", pack(asc)})
		}
		var (
			vs *vbp.Column
			hs *hbp.Column
		)
		if c.layout == "vbp" {
			vs = vbp.Pack(sel, 7, 4)
		} else {
			hs = hbp.Pack(sel, 7, c.tau)
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
			if vs != nil {
				preds = []scan.WindowPred{scan.NewVBPWindowPred(vs, p)}
			} else {
				preds = []scan.WindowPred{scan.NewHBPWindowPred(hs, p)}
			}
			for _, cl := range cells {
				agg, vc, hc := cl.agg, cl.col.v, cl.col.h
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
					name := fmt.Sprintf("%s/k=%d/%s%s/sel=%d%%/%s", c.layout, c.k, agg, cl.order, pct, src)
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
