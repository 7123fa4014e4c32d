package bench

import (
	"fmt"
	"io"

	"bpagg/internal/tpch"
)

// PrintFig5 renders the selectivity sweep as the speedup table behind the
// paper's Figure 5 bars.
func PrintFig5(w io.Writer, rows []MicroRow) {
	fmt.Fprintln(w, "Figure 5 — aggregation speedup of BP over NBP, varying selectivity")
	fmt.Fprintln(w, "(k=25; single thread; ns/tuple of the aggregation phase)")
	fmt.Fprintf(w, "%-7s %-8s %12s %12s %12s %9s\n",
		"layout", "agg", "selectivity", "NBP ns/t", "BP ns/t", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %-8s %12.2f %12.3f %12.3f %8.1fx\n",
			r.Layout, r.Agg, r.Param, r.NBPns, r.BPns, r.Speedup)
	}
}

// PrintFig6 renders the value-width sweep (paper Figure 6).
func PrintFig6(w io.Writer, rows []MicroRow) {
	fmt.Fprintln(w, "Figure 6 — aggregation cost varying value width k")
	fmt.Fprintln(w, "(selectivity 0.1; single thread; ns/tuple of the aggregation phase)")
	fmt.Fprintf(w, "%-7s %-8s %8s %12s %12s %9s\n",
		"layout", "agg", "k", "NBP ns/t", "BP ns/t", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %-8s %8.0f %12.3f %12.3f %8.1fx\n",
			r.Layout, r.Agg, r.Param, r.NBPns, r.BPns, r.Speedup)
	}
}

// PrintFig7 renders the data-size sweep (paper Figure 7) with total times.
func PrintFig7(w io.Writer, rows []MicroRow) {
	fmt.Fprintln(w, "Figure 7 — aggregation cost varying data size")
	fmt.Fprintln(w, "(k=25; selectivity 0.1; single thread)")
	fmt.Fprintf(w, "%-7s %-8s %12s %12s %12s %12s %12s\n",
		"layout", "agg", "tuples", "NBP ms", "BP ms", "NBP ns/t", "BP ns/t")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %-8s %12.0f %12.1f %12.1f %12.3f %12.3f\n",
			r.Layout, r.Agg, r.Param,
			r.NBPns*r.Param/1e6, r.BPns*r.Param/1e6, r.NBPns, r.BPns)
	}
}

// PrintFig8 renders the multi-threading speedups (paper Figure 8).
func PrintFig8(w io.Writer, rows []Fig8Row, threads int) {
	fmt.Fprintf(w, "Figure 8 — speedup over single-threaded bit-parallel (threads=%d)\n", threads)
	fmt.Fprintf(w, "%-7s %-8s %12s %10s\n", "layout", "agg", "serial ns/t", "MT")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %-8s %12.3f %9.1fx\n", r.Layout, r.Agg, r.SerialNs, r.MT)
	}
}

// PrintTable2 renders one layout section of Table II. The "auto" columns
// report the optimizer policy of §III: reconstruction below the layout's
// measured crossover selectivity, bit-parallel above it.
func PrintTable2(w io.Writer, layout tpch.Layout, rows []Table2Row) {
	fmt.Fprintf(w, "Table II (%s) — TPC-H style queries, ns/tuple (scan is bit-parallel for both)\n", layout)
	fmt.Fprintf(w, "%-5s %6s %10s %10s %10s %10s %9s %9s %10s %10s %9s\n",
		"query", "sel", "scan", "agg NBP", "agg BP", "agg auto", "agg impr", "auto impr", "tot NBP", "tot BP", "tot impr")
	var aggImpSum, autoImpSum, totImpSum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %6.3f %10.3f %10.3f %10.3f %10.3f %8.1f%% %8.1f%% %10.3f %10.3f %8.1f%%\n",
			r.Query, r.Selectivity, r.ScanNs, r.AggNBPNs, r.AggBPNs, r.AggAutoNs,
			r.AggImprove, r.AutoImprove, r.TotalNBPNs, r.TotalBPNs, r.TotImprove)
		aggImpSum += r.AggImprove
		autoImpSum += r.AutoImprove
		totImpSum += r.TotImprove
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "%-5s %6s %10s %10s %10s %10s %8.1f%% %8.1f%% %10s %10s %8.1f%%\n",
		"avg", "", "", "", "", "", aggImpSum/n, autoImpSum/n, "", "", totImpSum/n)
}
