package bpagg

import (
	"math/rand"
	"testing"
)

// TestLargePipeline is a scaled integration test (skipped with -short):
// a multi-million-row wide table driven through the full public surface,
// cross-checked against plain-slice evaluation.
func TestLargePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("large integration test")
	}
	const n = 2 << 20
	rng := rand.New(rand.NewSource(161))
	price := make([]uint64, n)
	qty := make([]uint64, n)
	region := make([]uint64, n)
	for i := 0; i < n; i++ {
		price[i] = uint64(rng.Intn(1 << 20))
		qty[i] = uint64(rng.Intn(64))
		region[i] = uint64(rng.Intn(8))
	}
	tbl := NewTable()
	tbl.AddColumn("price", VBP, 20)
	tbl.AddColumn("qty", HBP, 6)
	tbl.AddColumn("region", VBP, 3)
	tbl.AppendColumnar(map[string][]uint64{"price": price, "qty": qty, "region": region})

	q := tbl.Query().
		Where("price", Less(1<<19)).
		Where("qty", GreaterEq(10)).
		With(Parallel(4))
	var wantCount, wantSum uint64
	perRegion := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		if price[i] < 1<<19 && qty[i] >= 10 {
			wantCount++
			wantSum += qty[i]
			perRegion[region[i]] += price[i]
		}
	}
	if got := q.CountRows(); got != wantCount {
		t.Fatalf("CountRows = %d, want %d", got, wantCount)
	}
	if got := q.Sum("qty"); got != wantSum {
		t.Fatalf("Sum = %d, want %d", got, wantSum)
	}
	g := tbl.Query().
		Where("price", Less(1<<19)).
		Where("qty", GreaterEq(10)).
		GroupBy("region")
	sums := g.Sum("price")
	for i, key := range g.Keys() {
		if sums[i] != perRegion[key] {
			t.Fatalf("region %d sum = %d, want %d", key, sums[i], perRegion[key])
		}
	}
}
