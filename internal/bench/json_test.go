package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"bpagg/internal/tpch"
)

func TestReportJSONRoundTrip(t *testing.T) {
	rep := NewReport(DefaultConfig())
	rep.AddFig5([]MicroRow{{Layout: tpch.VBP, Agg: AggSum, Param: 0.1, NBPns: 2.0, BPns: 0.5, Speedup: 4.0}})
	rep.AddFig8([]Fig8Row{{Layout: tpch.HBP, Agg: AggMinMax, SerialNs: 1.5, MT: 3.1}})
	rep.AddTable2(tpch.VBP, []Table2Row{{Query: "Q1", Selectivity: 0.1, ScanNs: 0.3, AggNBPNs: 2.0, AggBPNs: 0.4}})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", back.Schema, ReportSchema)
	}
	if len(back.Fig5) != 1 || back.Fig5[0].Layout != "VBP" || back.Fig5[0].Speedup != 4.0 {
		t.Errorf("fig5 = %+v", back.Fig5)
	}
	if len(back.Fig8) != 1 || back.Fig8[0].Layout != "HBP" || back.Fig8[0].Agg != "MIN/MAX" {
		t.Errorf("fig8 = %+v", back.Fig8)
	}
	if len(back.Table2) != 1 || back.Table2[0].Query != "Q1" {
		t.Errorf("table2 = %+v", back.Table2)
	}
	if back.Config.N != DefaultConfig().N {
		t.Errorf("config.n = %d", back.Config.N)
	}
}

func TestReportNilSafe(t *testing.T) {
	var rep *Report
	rep.AddFig5(nil)
	rep.AddFig6(nil)
	rep.AddFig7(nil)
	rep.AddFig8(nil)
	rep.AddTable2(tpch.VBP, nil)
}
