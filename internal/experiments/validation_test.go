package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestSimulatorValidation(t *testing.T) {
	rows, err := validationGrid.Local(context.Background(), Params{Seed: 99, Trials: 2667})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	t.Log("\n" + RenderValidation(rows))
	for _, r := range rows {
		tolerance := 8.0
		if strings.Contains(r.Model, "M/M/1") {
			// Truncation perturbs the service distribution's second
			// moment; allow a wider band.
			tolerance = 20.0
		}
		if r.Rho >= 0.9 {
			tolerance = 12.0 // slow mixing near saturation
		}
		if r.ErrorPct > tolerance {
			t.Errorf("%s rho=%.1f: theory %.3fus vs sim %.3fus (%.1f%% > %.0f%%)",
				r.Model, r.Rho, r.TheoryUs, r.MeasuredUs, r.ErrorPct, tolerance)
		}
	}
	// Waits grow with utilization within each model.
	for i := 1; i < 4; i++ {
		if rows[i].MeasuredUs <= rows[i-1].MeasuredUs {
			t.Errorf("M/D/1 wait not increasing with rho: %v then %v", rows[i-1].MeasuredUs, rows[i].MeasuredUs)
		}
	}
}
