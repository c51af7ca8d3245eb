package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestPriorityComparison(t *testing.T) {
	rows, err := priorityGrid.Local(context.Background(), Params{Seed: 7, RPCs: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	t.Log("\n" + RenderPriority(rows))
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Topology+"/"+r.Discipline] = r.RTTUs
	}
	// DeTail's lever: priorities rescue the tree's RPC from queueing.
	if byKey["two-tier tree/priority"] >= byKey["two-tier tree/fifo"] {
		t.Errorf("priority queueing did not help the tree: %.1f vs %.1f",
			byKey["two-tier tree/priority"], byKey["two-tier tree/fifo"])
	}
	// The mesh needs no classification: FIFO is already near its
	// priority result (within 10%).
	if q, qp := byKey["quartz mesh/fifo"], byKey["quartz mesh/priority"]; q > qp*1.10 {
		t.Errorf("quartz fifo %.1f not close to quartz priority %.1f", q, qp)
	}
	// And even with priorities, the tree cannot beat the mesh (extra
	// hop + store-and-forward on the path).
	if byKey["two-tier tree/priority"] < byKey["quartz mesh/fifo"] {
		t.Errorf("prioritized tree %.1f beat FIFO mesh %.1f",
			byKey["two-tier tree/priority"], byKey["quartz mesh/fifo"])
	}
	if out := RenderPriority(rows); !strings.Contains(out, "discipline") {
		t.Error("render missing header")
	}
}
