package parallel

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/scan"
	"bpagg/internal/vbp"
	"bpagg/internal/word"
)

var recordDriverPin = flag.Bool("record-driver-pin", false,
	"rewrite testdata/driver_counters.golden (only meaningful on the commit the pin is recorded from)")

const driverPinFile = "testdata/driver_counters.golden"

const driverPinHeader = "# ExecStats (timers dropped, zero counters omitted) and result of the bitmap- and predicate-fed\n" +
	"# drivers, recorded on commit 2258c2979643c0668936782f55009ff12fd64179, before the two sources shared one\n" +
	"# kernel per aggregate, with\n" +
	"#   go test ./internal/parallel -run TestDriverCounterPin -record-driver-pin\n"

// driverPinStats renders the non-timer, non-zero counters of s.
func driverPinStats(s metrics.ExecStats) string {
	var b strings.Builder
	rv := reflect.ValueOf(s)
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if strings.HasSuffix(name, "Nanos") || rv.Field(i).Uint() == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%d", name, rv.Field(i).Uint())
	}
	return b.String()
}

// TestDriverCounterPin pins every counter the SUM, MIN, MAX and rank
// drivers record, fed a bitmap or the predicate conjunction that selects
// the same rows, on the checked (k = 64) and unchecked (k = 20) SUM
// kernels, on an HBP column of 63-tuple windows whose last one is partial,
// at one and eight workers, over empty, 1 %, 50 % and full selections. The
// two sources must also agree on every answer.
func TestDriverCounterPin(t *testing.T) {
	ctx := context.Background()
	const n = 64*300 + 37
	rng := rand.New(rand.NewSource(27))
	var lines []string
	for _, c := range []struct {
		name     string
		k, tau   int
		vbp, all bool // all: MIN, MAX and rank besides SUM
	}{
		{"vbp/k=64", 64, 4, true, false},
		{"hbp/k=64", 64, hbp.DefaultTau(64), false, false},
		{"vbp/k=20", 20, 4, true, true},
		{"hbp/k=20", 20, hbp.DefaultTau(20), false, true},
		{"hbp/k=6", 6, 6, false, true},
	} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & word.LowMask(c.k)
		}
		for _, sel := range []struct {
			name string
			p    float64
		}{{"empty", 0}, {"1%", 0.01}, {"50%", 0.5}, {"full", 1}} {
			f, flags := bitvec.New(n), make([]uint64, n)
			for i := range flags {
				if sel.p >= 1 || rng.Float64() < sel.p {
					f.Set(i)
					flags[i] = 1
				}
			}
			// The selector column is 1 exactly on f's rows, in the measure's
			// window geometry, so its predicate selects the same rows.
			var (
				vcol  *vbp.Column
				hcol  *hbp.Column
				preds []scan.WindowPred
			)
			one := scan.Predicate{Op: scan.EQ, A: 1}
			if c.vbp {
				vcol = vbp.Pack(vals, c.k, c.tau)
				preds = []scan.WindowPred{scan.NewVBPWindowPred(vbp.Pack(flags, 1, 1), one)}
			} else {
				hcol = hbp.Pack(vals, c.k, c.tau)
				preds = []scan.WindowPred{scan.NewHBPWindowPred(hbp.Pack(flags, c.tau, c.tau), one)}
			}
			u := uint64(f.Count())
			r := (u + 1) / 2
			rankOf := func(uint64) (uint64, bool) { return r, true }
			type run func(o Options) string
			aggs := []struct {
				name            string
				bitmap, fedPred run
			}{{"sum",
				func(o Options) string {
					if c.vbp {
						return fmt.Sprint(VBPSumCtx(ctx, vcol, f, o))
					}
					return fmt.Sprint(HBPSumCtx(ctx, hcol, f, o))
				},
				func(o Options) string {
					var s uint64
					var err error
					if c.vbp {
						s, _, err = VBPFusedSumCtx(ctx, vcol, preds, o)
					} else {
						s, _, err = HBPFusedSumCtx(ctx, hcol, preds, o)
					}
					return fmt.Sprint(s, err)
				}}}
			if c.all {
				for _, wantMin := range []bool{true, false} {
					name := map[bool]string{true: "min", false: "max"}[wantMin]
					aggs = append(aggs, struct {
						name            string
						bitmap, fedPred run
					}{name,
						func(o Options) string {
							switch {
							case c.vbp && wantMin:
								return fmt.Sprint(VBPMinCtx(ctx, vcol, f, o))
							case c.vbp:
								return fmt.Sprint(VBPMaxCtx(ctx, vcol, f, o))
							case wantMin:
								return fmt.Sprint(HBPMinCtx(ctx, hcol, f, o))
							}
							return fmt.Sprint(HBPMaxCtx(ctx, hcol, f, o))
						},
						func(o Options) string {
							var v, cnt uint64
							var err error
							if c.vbp {
								v, cnt, err = VBPFusedExtremeCtx(ctx, vcol, preds, o, wantMin)
							} else {
								v, cnt, err = HBPFusedExtremeCtx(ctx, hcol, preds, o, wantMin)
							}
							return fmt.Sprint(v, cnt > 0, err)
						}})
				}
				aggs = append(aggs, struct {
					name            string
					bitmap, fedPred run
				}{"median",
					func(o Options) string {
						if c.vbp {
							return fmt.Sprint(VBPRankCtx(ctx, vcol, f, r, o))
						}
						return fmt.Sprint(HBPRankCtx(ctx, hcol, f, r, o))
					},
					func(o Options) string {
						var v uint64
						var ok bool
						var err error
						if c.vbp {
							v, _, ok, err = VBPFusedRankCtx(ctx, vcol, preds, rankOf, o)
						} else {
							v, _, ok, err = HBPFusedRankCtx(ctx, hcol, preds, rankOf, o)
						}
						return fmt.Sprint(v, ok, err)
					}})
			}
			for _, a := range aggs {
				for _, threads := range []int{1, 8} {
					var got [2]string
					for i, drive := range []run{a.bitmap, a.fedPred} {
						rec := metrics.NewCollector()
						got[i] = drive(Options{Threads: threads, Stats: rec})
						lines = append(lines, fmt.Sprintf("%s %s %s t=%d %s: %s |%s",
							c.name, sel.name, a.name, threads, [2]string{"bitmap", "preds"}[i], got[i], driverPinStats(rec.Snapshot())))
					}
					if got[0] != got[1] {
						t.Errorf("%s %s %s t=%d: bitmap %q, predicates %q", c.name, sel.name, a.name, threads, got[0], got[1])
					}
				}
			}
		}
	}
	if *recordDriverPin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(driverPinFile, []byte(driverPinHeader+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(driverPinFile)
	if err != nil {
		t.Fatalf("%v (record with -record-driver-pin)", err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(want) != len(lines) {
		t.Fatalf("%d pinned lines, %d produced", len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, lines[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d lines differ", bad, len(lines))
	}
}
