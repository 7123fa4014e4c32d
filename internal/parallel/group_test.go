package parallel

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"bpagg/internal/bitvec"
	"bpagg/internal/core"
	"bpagg/internal/hbp"
	"bpagg/internal/metrics"
	"bpagg/internal/vbp"
)

// groupFixture is a VBP key, an HBP key whose window size differs from
// 64, and one measure column per layout, over a half-selective filter.
type groupFixture struct {
	f          *bitvec.Bitmap
	n          int
	vkey, hkey GroupCol
	vm, hm     GroupCol
}

func newGroupFixture(t *testing.T, seed int64, n int) groupFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, f := fixture(rng, n, 3, 0.5)
	b, _ := fixture(rng, n, 4, 0)
	m, _ := fixture(rng, n, 11, 0)
	fx := groupFixture{f: f, n: n,
		vkey: GroupCol{V: vbp.Pack(a, 3, 3)}, hkey: GroupCol{H: hbp.Pack(b, 4, 4)},
		vm: GroupCol{V: vbp.Pack(m, 11, 4)}, hm: GroupCol{H: hbp.Pack(m, 11, 6)}}
	if fx.hkey.vps() == 64 || fx.hm.vps() == 64 || fx.hm.vps() == fx.hkey.vps() {
		t.Fatalf("fixture wants three window sizes, got 64/%d/%d", fx.hkey.vps(), fx.hm.vps())
	}
	return fx
}

// samePartition fails unless two partitions agree on everything a caller
// can observe: keys, counts, the run list entry for entry, every group's
// bitmap, and the banked aggregates over both measure layouts.
func samePartition(t *testing.T, label string, fx groupFixture, got, want *HashPartition) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys, want.Keys) || !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("%s: keys/counts differ:\n%v %v\n%v %v", label, got.Keys, got.Counts, want.Keys, want.Counts)
	}
	if !reflect.DeepEqual(got.se, want.se) {
		t.Fatalf("%s: run lists differ:\n%+v\n%+v", label, got.se, want.se)
	}
	for i := range want.Keys {
		if !reflect.DeepEqual(got.Materialize(i).Words(), want.Materialize(i).Words()) {
			t.Fatalf("%s: group %d bitmaps differ", label, i)
		}
	}
	ctx, o := context.Background(), Options{Threads: 1}
	for _, m := range []GroupCol{fx.vm, fx.hm} {
		gh, gl, _ := HashGroupSumCtx(ctx, m, got, o)
		wh, wl, _ := HashGroupSumCtx(ctx, m, want, o)
		if !reflect.DeepEqual(gh, wh) || !reflect.DeepEqual(gl, wl) {
			t.Fatalf("%s: sums differ: %v vs %v", label, gl, wl)
		}
		for _, op := range []MeasureOp{MeasureMin, MeasureMax} {
			gb, _ := BankCtx(ctx, Measure{Col: m, Op: op}, got, o)
			wb, _ := BankCtx(ctx, Measure{Col: m, Op: op}, want, o)
			if !reflect.DeepEqual(gb.Best, wb.Best) || !reflect.DeepEqual(gb.Any, wb.Any) {
				t.Fatalf("%s: extremes (op %d) differ: %v vs %v", label, op, gb.Best, wb.Best)
			}
		}
	}
}

// TestKeyIndexEquivalence: the same narrow-key partitions through the
// direct-mapped and the open-addressing index give identical keys, counts,
// run lists and aggregates — the index is invisible — and only the hashed
// one probes.
func TestKeyIndexEquivalence(t *testing.T) {
	fx := newGroupFixture(t, 91, 64*40+17)
	for name, cols := range map[string][]GroupCol{
		"vbp": {fx.vkey}, "hbp": {fx.hkey}, "vbp,hbp": {fx.vkey, fx.hkey}, "hbp,vbp": {fx.hkey, fx.vkey},
	} {
		for _, th := range []int{1, 3} {
			var probes [2]uint64
			var hps [2]*HashPartition
			for i, indexBits := range []int{core.DirectKeyBits, 64} {
				rec := metrics.NewCollector()
				pass := GroupPass{Cols: cols, N: fx.n, Limit: core.MaxHashGroups, Keep: fx.f, indexBits: indexBits}
				hp, err := GroupPassCtx(context.Background(), pass, Options{Threads: th, Stats: rec})
				if err != nil {
					t.Fatal(err)
				}
				hps[i], probes[i] = hp, rec.Snapshot().HashProbes
			}
			if probes[0] != 0 || probes[1] == 0 {
				t.Errorf("%s threads %d: HashProbes direct %d, hashed %d; want 0 and > 0", name, th, probes[0], probes[1])
			}
			samePartition(t, name, fx, hps[1], hps[0])
		}
	}
}

// TestPartitionBoundaryWindow: a VBP key refined by an HBP key of another
// window size re-windows every chunk's list. Chunks hold whole windows of
// both columns, so the kept list is the same entry for entry at Threads 1,
// 2, 3 and 7 and with the chunk shrunk to one least common multiple of the
// widths, where small tables cross many chunk and worker boundaries.
func TestPartitionBoundaryWindow(t *testing.T) {
	fx := newGroupFixture(t, 92, 64*23+5)
	for name, cols := range map[string][]GroupCol{"vbp,hbp": {fx.vkey, fx.hkey}, "hbp,vbp": {fx.hkey, fx.vkey}} {
		part := func(th, chunk int) *HashPartition {
			pass := GroupPass{Cols: cols, N: fx.n, Limit: core.MaxHashGroups, Keep: fx.f, Chunk: chunk}
			hp, err := GroupPassCtx(context.Background(), pass, Options{Threads: th})
			if err != nil {
				t.Fatal(err)
			}
			return hp
		}
		want := part(1, 0)
		var rows uint64
		for _, c := range want.Counts {
			rows += c
		}
		if int(rows) != fx.f.Count() {
			t.Fatalf("%s: counts cover %d rows, filter selects %d", name, rows, fx.f.Count())
		}
		for _, th := range []int{1, 2, 3, 7} {
			samePartition(t, name, fx, part(th, 1), want)
			samePartition(t, name, fx, part(th, 0), want)
		}
	}
}

// TestGroupPassBanks: a pass that banks its measures at emit answers what
// the kept-list drivers answer over a kept partition — sums, extremes and
// COUNT(col) over measures of both layouts, with and without NULL rows —
// and records the same counters, at Threads 1, 2 and 7, with the chunk at
// its default and shrunk to one least common multiple of the widths.
func TestGroupPassBanks(t *testing.T) {
	fx := newGroupFixture(t, 94, 64*37+11)
	nulls := bitvec.New(fx.n)
	for i := 0; i < fx.n; i += 5 {
		nulls.Set(i)
	}
	ctx := context.Background()
	var ms []Measure
	for _, c := range []GroupCol{fx.vm, fx.hm, {V: fx.vm.V, Nulls: nulls}, {H: fx.hm.H, Nulls: nulls}} {
		for _, op := range []MeasureOp{MeasureSum, MeasureMin, MeasureMax, MeasureCount} {
			ms = append(ms, Measure{Col: c, Op: op})
		}
	}
	for name, cols := range map[string][]GroupCol{"vbp": {fx.vkey}, "hbp": {fx.hkey}, "vbp,hbp": {fx.vkey, fx.hkey}} {
		keptRec := metrics.NewCollector()
		kept, err := GroupPassCtx(ctx, GroupPass{Cols: cols, N: fx.n, Limit: core.MaxHashGroups, Keep: fx.f}, Options{Threads: 1, Stats: keptRec})
		if err != nil {
			t.Fatal(err)
		}
		var want []*Bank
		for _, m := range ms {
			b, err := BankCtx(ctx, m, kept, Options{Threads: 1, Stats: keptRec})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
		for _, th := range []int{1, 2, 7} {
			for _, chunk := range []int{0, 1} {
				rec := metrics.NewCollector()
				pass := GroupPass{Cols: cols, Filter: core.Bits(fx.f), N: fx.n, Limit: core.MaxHashGroups, Measures: ms, Chunk: chunk}
				hp, err := GroupPassCtx(ctx, pass, Options{Threads: th, Stats: rec})
				if err != nil {
					t.Fatal(err)
				}
				if hp.se != nil || !reflect.DeepEqual(hp.Keys, kept.Keys) || !reflect.DeepEqual(hp.Counts, kept.Counts) {
					t.Fatalf("%s threads %d chunk %d: kept %v, keys/counts %v %v, want %v %v", name, th, chunk, hp.se != nil, hp.Keys, hp.Counts, kept.Keys, kept.Counts)
				}
				for j, b := range hp.Banks {
					w := want[j]
					if !reflect.DeepEqual([][]uint64{b.His, b.Los, b.Best, b.Count}, [][]uint64{w.His, w.Los, w.Best, w.Count}) || !reflect.DeepEqual(b.Any, w.Any) {
						t.Fatalf("%s threads %d chunk %d: measure %d (op %d) banks %+v, kept list %+v", name, th, chunk, j, ms[j].Op, b, w)
					}
				}
				got, exp := rec.Snapshot(), keptRec.Snapshot()
				got.HashProbes, exp.HashProbes = 0, 0
				if pinOf(got) != pinOf(exp) {
					t.Fatalf("%s threads %d chunk %d: counters %v, kept list %v", name, th, chunk, pinOf(got), pinOf(exp))
				}
			}
		}
	}
}

// pinOf is an ExecStats without its timers.
func pinOf(s metrics.ExecStats) metrics.ExecStats {
	s.ScanNanos, s.AggNanos, s.WorkerBusyNanos = 0, 0, 0
	return s
}

// TestGroupPassBudget: a pass past its key budget returns
// core.ErrGroupCardinality and no partition, whichever worker crosses it.
func TestGroupPassBudget(t *testing.T) {
	fx := newGroupFixture(t, 95, 64*29+3)
	cols := []GroupCol{fx.vkey, fx.hkey} // up to 8 × 16 keys
	for _, th := range []int{1, 3} {
		pass := GroupPass{Cols: cols, Filter: core.Bits(fx.f), N: fx.n, Limit: 5, Measures: []Measure{{Col: fx.vm, Op: MeasureSum}}, Chunk: 1}
		if hp, err := GroupPassCtx(context.Background(), pass, Options{Threads: th}); hp != nil || err != core.ErrGroupCardinality {
			t.Fatalf("threads %d: %v, %v; want no partition and core.ErrGroupCardinality", th, hp, err)
		}
	}
}

// TestGroupRankMatchesPerGroupDescent: one grouped descent answers, for
// every group, what the single-column descent answers over that group's
// rows alone — for a measure whose windows match the key's and one whose
// do not, with and without NULL rows, at Threads 1 and 3.
func TestGroupRankMatchesPerGroupDescent(t *testing.T) {
	fx := newGroupFixture(t, 93, 64*31+9)
	nulls := bitvec.New(fx.n)
	for i := 0; i < fx.n; i += 7 {
		nulls.Set(i)
	}
	ctx := context.Background()
	median := func(u uint64) (uint64, bool) { return (u + 1) / 2, u > 0 }
	for name, cols := range map[string][]GroupCol{"vbp": {fx.vkey}, "hbp": {fx.hkey}, "vbp,hbp": {fx.vkey, fx.hkey}} {
		hp, err := HashGroupPartitionCtx(ctx, cols, fx.f, fx.n, core.MaxHashGroups, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []GroupCol{fx.vm, fx.hm, {V: fx.vm.V, Nulls: nulls}, {H: fx.hm.H, Nulls: nulls}} {
			for _, th := range []int{1, 3} {
				o := Options{Threads: th}
				vals, oks, err := RankCtx(ctx, []RankPart{{Col: m, HP: hp}}, len(hp.Keys), median, o)
				if err != nil {
					t.Fatal(err)
				}
				for i := range hp.Keys {
					sel := hp.Materialize(i)
					if m.Nulls != nil {
						sel.AndNot(m.Nulls)
					}
					r, wantOK := median(uint64(sel.Count()))
					var want uint64
					if m.V != nil {
						want, _, err = VBPRankCtx(ctx, m.V, sel, r, o)
					} else {
						want, _, err = HBPRankCtx(ctx, m.H, sel, r, o)
					}
					if err != nil || oks[i] != wantOK || wantOK && vals[i] != want {
						t.Fatalf("%s, NULLs %v, threads %d: group %d = %d (ok %v), per-group descent %d (ok %v, err %v)",
							name, m.Nulls != nil, th, i, vals[i], oks[i], want, wantOK, err)
					}
				}
			}
		}
	}
}

// HashGroupSumCtx computes the 128-bit SUM of every group over the kept
// run list, indexed like Keys: the kept-list SUM the tests and
// BenchmarkGroup compare against.
func HashGroupSumCtx(ctx context.Context, col GroupCol, hp *HashPartition, o Options) ([]uint64, []uint64, error) {
	b, err := BankCtx(ctx, Measure{Col: col, Op: MeasureSum}, hp, o)
	if err != nil {
		return nil, nil, err
	}
	return b.His, b.Los, nil
}
