package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json at the repository
// root repeats these tables for the driver; a test holds the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of bpaggd sees. Every workload reports all of
// them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"svc_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"heap_mb", "MiB", "lower", 0.05},
	{"qps", "1/s", "higher", 0.25},
	{"ingest_mrows_per_s", "Mrows/s", "higher", 0.25},
}

// perLayer is what the traced run reports, one module per prefix.
var perLayer = []metricDef{
	{"host.calib_ms", "ms", "lower", 0},
	{"host.memmove_ns_per_row", "ns/row", "lower", 0},
	{"word.csa_ns_per_word", "ns/word", "lower", 0},
	{"word.transpose_ns", "ns", "lower", 0},
	{"vbp.pack_ns_per_value", "ns/value", "lower", 0},
	{"hbp.pack_ns_per_value", "ns/value", "lower", 0},
	{"vbp.append_ns_per_value", "ns/value", "lower", 0},
	{"hbp.append_ns_per_value", "ns/value", "lower", 0},
	{"scan.ns_per_row", "ns/row", "lower", 0},
	{"scan.words_per_row", "words/row", "lower", 0},
	{"scan.pruned_share", "share", "higher", 0},
	{"core.agg_ns_per_row", "ns/row", "lower", 0},
	{"core.fused_ns_per_row", "ns/row", "lower", 0},
	{"core.words_per_row", "words/row", "lower", 0},
	{"core.group_ns_per_row", "ns/row", "lower", 0},
	{"core.hash_probes_per_row", "probes/row", "lower", 0},
	{"core.rank_rounds", "count", "lower", 0},
	{"parallel.fused_ns_per_row", "ns/row", "lower", 0},
	{"parallel.self_us", "us", "lower", 0},
	{"parallel.t2_speedup", "x", "higher", 0},
	{"bpagg.query_ms", "ms", "lower", 0},
	{"bpagg.self_us", "us", "lower", 0},
	{"bpagg.groupby_ms", "ms", "lower", 0},
	{"bpagg.append_us_per_batch", "us", "lower", 0},
	{"bpagg.append_drift", "x", "lower", 0},
	{"bpagg.bytes_per_row", "B/row", "lower", 0},
	{"bpagg.write_mb_per_s", "MB/s", "higher", 0},
	{"bpagg.read_mb_per_s", "MB/s", "higher", 0},
	{"rangeidx.lookup_us", "us", "lower", 0},
	{"rangeidx.first_after_append_us", "us", "lower", 0},
	{"catalog.bind_us", "us", "lower", 0},
	{"sqlmini.parse_us", "us", "lower", 0},
	{"sqlmini.exec_ms", "ms", "lower", 0},
	{"sqlmini.self_us", "us", "lower", 0},
	{"sqlmini.alloc_kb", "KiB", "lower", 0},
	{"server.rtt_ms", "ms", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.collector_pct", "%", "lower", 0},
	{"server.shed_share", "share", "lower", 0},
	{"server.batched_share", "share", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"p50_ms", "ms", "lower", 0},
	{"tail_ms", "ms", "lower", 0},
	{"tail_pct", "%", "higher", 0},
}

// metricSet collects one run's metrics against a table, so a name that is
// misspelt, set twice or never set fails the run.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]metric, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.vals[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: unknown metric: " + name)
}

// done returns the metrics, or an error naming one that was never set.
func (m *metricSet) done() (map[string]metric, error) {
	for _, d := range m.defs {
		if _, ok := m.vals[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return m.vals, nil
}
