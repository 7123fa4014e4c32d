package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"bpagg/internal/tpch"
)

func tinyConfig() Config {
	return Config{
		N: 1 << 13, K: 25, Sel: 0.1, Threads: 2, Seed: 1,
		MinTime: time.Millisecond,
	}
}

func TestWorkloadGeneration(t *testing.T) {
	w := NewWorkload(10000, 25, 0.1, 1)
	if w.V.Len() != 10000 || w.H.Len() != 10000 || w.F.Len() != 10000 {
		t.Fatal("workload sizes wrong")
	}
	got := float64(w.F.Count()) / 10000
	if got < 0.08 || got > 0.12 {
		t.Errorf("selectivity %f, want ~0.1", got)
	}
	// Same seed reproduces; WithSelectivity reuses the packed columns.
	w2 := NewWorkload(10000, 25, 0.1, 1)
	if w2.F.Count() != w.F.Count() {
		t.Error("same seed, different filter")
	}
	w3 := w.WithSelectivity(0.9, 2)
	if w3.V != w.V || w3.H != w.H {
		t.Error("WithSelectivity must share packed columns")
	}
	if c := float64(w3.F.Count()) / 10000; c < 0.88 || c > 0.92 {
		t.Errorf("derived selectivity %f, want ~0.9", c)
	}
}

func TestMeasureNsPerTuple(t *testing.T) {
	calls := 0
	ns := MeasureNsPerTuple(1000, 2*time.Millisecond, func() {
		calls++
		time.Sleep(200 * time.Microsecond)
	})
	if calls < 2 {
		t.Errorf("expected repeated calls, got %d", calls)
	}
	// 200us over 1000 tuples ≈ 200ns/tuple (very loose bounds: CI noise).
	if ns < 50 || ns > 5000 {
		t.Errorf("ns/tuple = %f, expected around 200", ns)
	}
}

func TestFig5Shape(t *testing.T) {
	rows := Fig5(tinyConfig())
	// 7 selectivities x 2 layouts x 3 aggregates.
	if len(rows) != 7*2*3 {
		t.Fatalf("Fig5 returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.NBPns <= 0 || r.BPns <= 0 || r.Speedup <= 0 {
			t.Fatalf("non-positive measurement in %+v", r)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rows := Fig6(tinyConfig())
	if len(rows) != 9*2*3 {
		t.Fatalf("Fig6 returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Param < 2 || r.Param > 50 {
			t.Fatalf("Fig6 k out of range: %+v", r)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := tinyConfig()
	rows := Fig7(cfg)
	if len(rows) != 4*2*3 {
		t.Fatalf("Fig7 returned %d rows", len(rows))
	}
	if rows[0].Param != float64(cfg.N) || rows[len(rows)-1].Param != float64(4*cfg.N) {
		t.Fatalf("Fig7 size sweep wrong: first %v last %v", rows[0].Param, rows[len(rows)-1].Param)
	}
}

func TestFig8Shape(t *testing.T) {
	rows := Fig8(tinyConfig())
	if len(rows) != 2*3 {
		t.Fatalf("Fig8 returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SerialNs <= 0 || r.MT <= 0 {
			t.Fatalf("non-positive speedup in %+v", r)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	for _, layout := range Layouts {
		rows := Table2(tinyConfig(), layout)
		if len(rows) != 9 {
			t.Fatalf("%v Table2 returned %d rows", layout, len(rows))
		}
		names := map[string]bool{}
		for _, r := range rows {
			names[r.Query] = true
			if r.ScanNs <= 0 || r.AggNBPNs <= 0 || r.AggBPNs <= 0 {
				t.Fatalf("non-positive cost in %+v", r)
			}
			if r.TotalNBPNs != r.ScanNs+r.AggNBPNs || r.TotalBPNs != r.ScanNs+r.AggBPNs {
				t.Fatalf("totals inconsistent in %+v", r)
			}
		}
		for _, q := range []string{"Q1", "Q6", "Q7", "Q9", "Q10", "Q11", "Q14", "Q15", "Q20"} {
			if !names[q] {
				t.Errorf("%v Table2 missing %s", layout, q)
			}
		}
	}
}

func TestSanity(t *testing.T) {
	if !Sanity(tinyConfig()) {
		t.Fatal("Sanity reported BP/NBP disagreement")
	}
}

func TestPrinters(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	PrintFig5(&buf, Fig5(cfg))
	PrintFig6(&buf, Fig6(cfg))
	PrintFig7(&buf, Fig7(cfg))
	PrintFig8(&buf, Fig8(cfg), cfg.Threads)
	PrintTable2(&buf, tpch.VBP, Table2(cfg, tpch.VBP))
	out := buf.String()
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Table II", "Q1", "MEDIAN", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}
