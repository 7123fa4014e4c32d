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
		for _, wantMin := range []bool{true, false} {
			gv, ga, _ := HashGroupExtremeCtx(ctx, m, got, wantMin, o)
			wv, wa, _ := HashGroupExtremeCtx(ctx, m, want, wantMin, o)
			if !reflect.DeepEqual(gv, wv) || !reflect.DeepEqual(ga, wa) {
				t.Fatalf("%s: extremes (min=%v) differ: %v vs %v", label, wantMin, gv, wv)
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
				hp, err := groupPartition(context.Background(), cols, fx.f, fx.n, core.MaxHashGroups, indexBits, Options{Threads: th, Stats: rec})
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
// window size re-windows every worker's list, so adjacent workers end and
// start in the same target window. The concatenation must merge it: at
// Threads 2, 3 and 7 the partition equals Threads 1 entry for entry.
func TestPartitionBoundaryWindow(t *testing.T) {
	fx := newGroupFixture(t, 92, 64*23+5)
	for name, cols := range map[string][]GroupCol{"vbp,hbp": {fx.vkey, fx.hkey}, "hbp,vbp": {fx.hkey, fx.vkey}} {
		part := func(th int) *HashPartition {
			hp, err := HashGroupPartitionCtx(context.Background(), cols, fx.f, fx.n, core.MaxHashGroups, Options{Threads: th})
			if err != nil {
				t.Fatal(err)
			}
			return hp
		}
		want := part(1)
		var rows uint64
		for _, c := range want.Counts {
			rows += c
		}
		if int(rows) != fx.f.Count() {
			t.Fatalf("%s: counts cover %d rows, filter selects %d", name, rows, fx.f.Count())
		}
		for _, th := range []int{2, 3, 7} {
			samePartition(t, name, fx, part(th), want)
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
