package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

// BenchmarkGroup is the core.group rung: one GROUP BY partition plus the
// SUM of a VBP k = 20 measure per group, at Threads 1 over 2^20 uniform
// rows, filtered by a bitmap at 10/50/100 % selectivity, at 4, 16, 64 and
// 4 096 groups (a VBP k = 2 key, a VBP k = 4 key, a composite of the k = 2
// key and an HBP k = 4 key of another window width, and an HBP k = 14 key
// holding 4 096 distinct values). It runs in two forms: "kept", the
// partition that keeps its run list and a SUM over it
// (HashGroupPartitionCtx + HashGroupSumCtx), and "banked", one pass that
// folds the SUM into its bank as it emits (GroupPassCtx with a measure).
// `make kernel-bench` fixes -benchtime and -count; ns/row is per selected
// or rejected row alike.
func BenchmarkGroup(b *testing.B) {
	ctx := context.Background()
	const n = 1 << 20
	rng := rand.New(rand.NewSource(29))
	draw := func(k int, below uint64) []uint64 {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & word.LowMask(k) % below
		}
		return vals
	}
	flag, disc := GroupCol{V: vbp.Pack(draw(2, 4), 2, 2)}, GroupCol{V: vbp.Pack(draw(4, 16), 4, 4)}
	part, cust := GroupCol{H: hbp.Pack(draw(4, 16), 4, 4)}, GroupCol{H: hbp.Pack(draw(14, 4096), 14, 7)}
	measure := GroupCol{V: vbp.Pack(draw(20, 1<<20), 20, 4)}
	sel := draw(7, 100)
	for _, key := range []struct {
		name string
		cols []GroupCol
	}{{"vbp-k2/groups=4", []GroupCol{flag}}, {"vbp-k4/groups=16", []GroupCol{disc}},
		{"composite/groups=64", []GroupCol{flag, part}}, {"hbp-k14/groups=4096", []GroupCol{cust}}} {
		for _, pct := range []uint64{10, 50, 100} {
			f := bitvec.New(n)
			for i, s := range sel {
				if s < pct {
					f.Set(i)
				}
			}
			forms := map[string]func() (uint64, error){
				"kept": func() (uint64, error) {
					hp, err := HashGroupPartitionCtx(ctx, key.cols, f, n, core.MaxHashGroups, Options{Threads: 1})
					if err != nil {
						return 0, err
					}
					_, los, err := HashGroupSumCtx(ctx, measure, hp, Options{Threads: 1})
					return los[0], err
				},
				"banked": func() (uint64, error) {
					pass := GroupPass{Cols: key.cols, Filter: core.Bits(f), N: n, Limit: core.MaxHashGroups,
						Measures: []Measure{{Col: measure, Op: MeasureSum}}}
					hp, err := GroupPassCtx(ctx, pass, Options{Threads: 1})
					if err != nil {
						return 0, err
					}
					return hp.Banks[0].Los[0], nil
				},
			}
			for _, form := range []string{"kept", "banked"} {
				run := forms[form]
				b.Run(fmt.Sprintf("%s/sel=%d%%/%s", key.name, pct, form), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						v, err := run()
						if err != nil {
							b.Fatal(err)
						}
						rankSink += v
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
				})
			}
		}
	}
}
