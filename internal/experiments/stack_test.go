package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestStackComparisonOrderOfMagnitude(t *testing.T) {
	rows, err := stackGrid.Local(context.Background(), Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	t.Log("\n" + RenderStack(rows))
	// Each step improves on the previous.
	for i := 1; i < len(rows); i++ {
		if rows[i].RTTUs >= rows[i-1].RTTUs {
			t.Errorf("step %q (%.2fus) not faster than %q (%.2fus)",
				rows[i].Config, rows[i].RTTUs, rows[i-1].Config, rows[i-1].RTTUs)
		}
	}
	// §1's claim: combining the techniques yields an order of magnitude.
	if speedup := rows[0].RTTUs / rows[3].RTTUs; speedup < 10 {
		t.Errorf("total speedup = %.1fx, want >= 10x", speedup)
	}
	if out := RenderStack(rows); !strings.Contains(out, "speedup") {
		t.Error("render missing speedup column")
	}
}
