package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// BenchmarkRank is the core.rank rung at driver level: MEDIAN through
// VBPRankFilterCtx / HBPRankFilterCtx at Threads 1 over 2^20 uniform rows,
// its filter words read from a materialized bitmap or evaluated from a
// predicate over a selector column of the same window geometry, at
// 1/10/50/90 % selectivity, on BenchmarkKernel's geometries (VBP k ∈
// {4, 20}, HBP k ∈ {6, 14}). `make kernel-bench` fixes -benchtime and
// -count; ns/row is per selected or rejected row alike.
func BenchmarkRank(b *testing.B) {
	ctx := context.Background()
	var v uint64
	const n = 1 << 20
	rng := rand.New(rand.NewSource(27))
	sel := make([]uint64, n)
	for i := range sel {
		sel[i] = uint64(rng.Intn(100))
	}
	median := func(u uint64) (uint64, bool) { return (u + 1) / 2, u > 0 }
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
			srcs := map[string]core.Filter{"bitmap": core.Bits(f)}
			if vc != nil {
				srcs["preds"] = core.Preds([]scan.WindowPred{scan.NewVBPWindowPred(vs, p)})
			} else {
				srcs["preds"] = core.Preds([]scan.WindowPred{scan.NewHBPWindowPred(hs, p)})
			}
			for _, name := range []string{"bitmap", "preds"} {
				src := srcs[name]
				b.Run(fmt.Sprintf("%s/k=%d/median/sel=%d%%/%s", c.layout, c.k, pct, name), func(b *testing.B) {
					o := Options{Threads: 1}
					for i := 0; i < b.N; i++ {
						var err error
						if vc != nil {
							v, _, _, err = VBPRankFilterCtx(ctx, vc, src, median, o)
						} else {
							v, _, _, err = HBPRankFilterCtx(ctx, hc, src, median, o)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
					rankSink += v
				})
			}
		}
	}
}

// rankSink keeps the measured calls' results alive.
var rankSink uint64
