package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"bpagg/internal/tpch"
)

// Machine-readable benchmark results. One Report is one full
// bpagg-bench run; CI archives the BENCH_results.json written from it,
// so the schema is versioned and additive: new fields may appear,
// existing ones keep their meaning.

// ReportSchema identifies the JSON layout of a Report.
const ReportSchema = "bpagg-bench/v1"

// Report is the machine-readable form of one benchmark run.
type Report struct {
	Schema    string       `json:"schema"`
	Timestamp string       `json:"timestamp"` // RFC 3339, UTC
	Host      ReportHost   `json:"host"`
	Config    ReportConfig `json:"config"`
	Fig5      []MicroJSON  `json:"fig5,omitempty"`
	Fig6      []MicroJSON  `json:"fig6,omitempty"`
	Fig7      []MicroJSON  `json:"fig7,omitempty"`
	Fig8      []Fig8JSON   `json:"fig8,omitempty"`
	Table2    []Table2JSON `json:"table2,omitempty"`
	Server    []ServerJSON `json:"concurrent_clients,omitempty"`
}

// ReportHost records the machine the run happened on — enough to know
// when two reports are comparable.
type ReportHost struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// ReportConfig echoes the experiment parameters.
type ReportConfig struct {
	N         int     `json:"n"`
	K         int     `json:"k"`
	Sel       float64 `json:"sel"`
	Threads   int     `json:"threads"`
	Seed      int64   `json:"seed"`
	MinTimeMs float64 `json:"min_time_ms"`
}

// MicroJSON is a MicroRow with enums rendered as strings.
type MicroJSON struct {
	Layout  string  `json:"layout"`
	Agg     string  `json:"agg"`
	Param   float64 `json:"param"`
	NBPNs   float64 `json:"nbp_ns_per_tuple"`
	BPNs    float64 `json:"bp_ns_per_tuple"`
	Speedup float64 `json:"speedup"`
}

// Fig8JSON is a Fig8Row with enums rendered as strings.
type Fig8JSON struct {
	Layout   string  `json:"layout"`
	Agg      string  `json:"agg"`
	SerialNs float64 `json:"serial_ns_per_tuple"`
	MT       float64 `json:"mt_speedup"`
}

// Table2JSON is a Table2Row tagged with its layout.
type Table2JSON struct {
	Layout      string  `json:"layout"`
	Query       string  `json:"query"`
	Selectivity float64 `json:"selectivity"`
	ScanNs      float64 `json:"scan_ns_per_tuple"`
	AggNBPNs    float64 `json:"agg_nbp_ns_per_tuple"`
	AggBPNs     float64 `json:"agg_bp_ns_per_tuple"`
	AggAutoNs   float64 `json:"agg_auto_ns_per_tuple"`
	AggImprove  float64 `json:"agg_improve_pct"`
	AutoImprove float64 `json:"auto_improve_pct"`
	TotImprove  float64 `json:"total_improve_pct"`
}

// NewReport starts a Report for one run of the given configuration.
func NewReport(cfg Config) *Report {
	return &Report{
		Schema:    ReportSchema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Host: ReportHost{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Config: ReportConfig{
			N: cfg.N, K: cfg.K, Sel: cfg.Sel, Threads: cfg.Threads,
			Seed: cfg.Seed, MinTimeMs: float64(cfg.MinTime) / float64(time.Millisecond),
		},
	}
}

func microJSON(rows []MicroRow) []MicroJSON {
	out := make([]MicroJSON, len(rows))
	for i, r := range rows {
		out[i] = MicroJSON{
			Layout: r.Layout.String(), Agg: r.Agg.String(), Param: r.Param,
			NBPNs: r.NBPns, BPNs: r.BPns, Speedup: r.Speedup,
		}
	}
	return out
}

// AddFig5 records a Figure 5 sweep (and likewise for the others below).
// All Add methods are no-ops on a nil Report, so callers can thread one
// pointer through unconditionally and only allocate when JSON output is
// requested.
func (r *Report) AddFig5(rows []MicroRow) {
	if r != nil {
		r.Fig5 = microJSON(rows)
	}
}

// AddFig6 records a Figure 6 sweep.
func (r *Report) AddFig6(rows []MicroRow) {
	if r != nil {
		r.Fig6 = microJSON(rows)
	}
}

// AddFig7 records a Figure 7 sweep.
func (r *Report) AddFig7(rows []MicroRow) {
	if r != nil {
		r.Fig7 = microJSON(rows)
	}
}

// AddFig8 records the multi-threading grid.
func (r *Report) AddFig8(rows []Fig8Row) {
	if r == nil {
		return
	}
	for _, row := range rows {
		r.Fig8 = append(r.Fig8, Fig8JSON{
			Layout: row.Layout.String(), Agg: row.Agg.String(),
			SerialNs: row.SerialNs, MT: row.MT,
		})
	}
}

// AddTable2 records one layout's Table II queries.
func (r *Report) AddTable2(layout tpch.Layout, rows []Table2Row) {
	if r == nil {
		return
	}
	for _, row := range rows {
		r.Table2 = append(r.Table2, Table2JSON{
			Layout: layout.String(), Query: row.Query, Selectivity: row.Selectivity,
			ScanNs: row.ScanNs, AggNBPNs: row.AggNBPNs, AggBPNs: row.AggBPNs,
			AggAutoNs: row.AggAutoNs, AggImprove: row.AggImprove,
			AutoImprove: row.AutoImprove, TotImprove: row.TotImprove,
		})
	}
}

// ServerJSON is a ServerRow in the report.
type ServerJSON struct {
	Mode         string  `json:"mode"`
	Clients      int     `json:"clients"`
	Requests     int     `json:"requests"`
	QPS          float64 `json:"qps"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	WordsTouched uint64  `json:"words_touched"`
	Scans        uint64  `json:"scans"`
	Batches      uint64  `json:"batches"`
	Batched      uint64  `json:"batched"`
}

// AddServer records the concurrent-clients serving A/B.
func (r *Report) AddServer(rows []ServerRow) {
	if r == nil {
		return
	}
	for _, row := range rows {
		r.Server = append(r.Server, ServerJSON{
			Mode: row.Mode, Clients: row.Clients, Requests: row.Requests,
			QPS: row.QPS, P50Ms: row.P50Ms, P99Ms: row.P99Ms,
			WordsTouched: row.WordsTouched, Scans: row.Scans,
			Batches: row.Batches, Batched: row.Batched,
		})
	}
}

// WriteJSON writes the report, indented, with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
