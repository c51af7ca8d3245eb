package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestSchedulerComparisonDiversityClaim(t *testing.T) {
	rows, err := schedulerGrid.Local(context.Background(), Params{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	t.Log("\n" + RenderScheduler(rows))
	tree, mesh := rows[0], rows[1]
	if tree.Alternatives != 1 {
		t.Errorf("tree diversity = %d, want 1", tree.Alternatives)
	}
	if mesh.Alternatives != 3 {
		t.Errorf("mesh diversity = %d, want 3", mesh.Alternatives)
	}
	// On the tree there is nowhere to move flows: scheduling changes
	// nothing (within 15%).
	treeGain := tree.Unscheduled / tree.Scheduled
	if treeGain > 1.15 || treeGain < 0.85 {
		t.Errorf("tree scheduling changed latency %.1f -> %.1f; no alternatives exist",
			tree.Unscheduled, tree.Scheduled)
	}
	// On the mesh the scheduler finds two-hop detours and cuts the
	// overload latency dramatically.
	if mesh.Moves == 0 {
		t.Error("scheduler never moved a flow on the mesh")
	}
	if mesh.Scheduled*2 > mesh.Unscheduled {
		t.Errorf("mesh scheduling gain too small: %.1f -> %.1f us",
			mesh.Unscheduled, mesh.Scheduled)
	}
	if out := RenderScheduler(rows); !strings.Contains(out, "alternatives") {
		t.Error("render missing columns")
	}
}
