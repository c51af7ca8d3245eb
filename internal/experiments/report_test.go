package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestReportWriteJSON(t *testing.T) {
	r := NewReport(Params{Seed: 7}, time.Date(2014, 8, 17, 12, 0, 0, 0, time.UTC))
	r.Add(ExperimentReport{Name: "fig17", Title: "Figure 17", Section: "7.1",
		WallSecs: 2.0, Events: 1_000_000, Tables: 1})
	r.Add(ExperimentReport{Name: "table8", Title: "Table 8", Section: "6.2"})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if back.Schema != ReportSchema {
		t.Errorf("schema = %q", back.Schema)
	}
	if back.StartedAt != "2014-08-17T12:00:00Z" {
		t.Errorf("started_at = %q", back.StartedAt)
	}
	if back.Params.Seed != 7 || back.Params.Trials != DefaultParams().Trials {
		t.Errorf("params = %+v, want seed 7 with defaults filled in", back.Params)
	}
	if len(back.Experiments) != 2 {
		t.Fatalf("experiments = %d, want 2", len(back.Experiments))
	}
	if got := back.Experiments[0].EventsPerSec; got != 500_000 {
		t.Errorf("events_per_sec = %v, want 500000 (1M events / 2s)", got)
	}
	if back.WallSecs != 2.0 {
		t.Errorf("total wall = %v, want 2.0", back.WallSecs)
	}
	// An analytic experiment with no events must not report a rate.
	if back.Experiments[1].EventsPerSec != 0 {
		t.Errorf("analytic events_per_sec = %v, want 0", back.Experiments[1].EventsPerSec)
	}
}
