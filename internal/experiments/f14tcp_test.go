package experiments

import (
	"context"
	"testing"
)

func TestFigure14TCPIsolation(t *testing.T) {
	rows, err := figure14TCPGrid.Local(context.Background(), Params{Seed: 7, RPCs: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	t.Log("\n" + RenderFigure14TCP(rows))
	// The tree's RPC degrades sharply once any bulk TCP flow shares its
	// aggregation trunk.
	if rows[1].TwoTierTree < 1.5 {
		t.Errorf("tree with 1 TCP source = %.2fx, want well above baseline", rows[1].TwoTierTree)
	}
	if rows[3].TwoTierTree < rows[1].TwoTierTree {
		t.Errorf("tree not degrading with more sources: %v", rows)
	}
	// Quartz isolates the RPC entirely: a single-source bulk flow
	// cannot oversubscribe its dedicated channel, so even the
	// co-channel third flow leaves the RPC untouched.
	for i := 1; i <= 3; i++ {
		if rows[i].Quartz > 1.2 {
			t.Errorf("quartz degraded with %d TCP flows: %.2fx", rows[i].Sources, rows[i].Quartz)
		}
	}
	// At every load the tree is at least as bad as quartz.
	for i := 1; i <= 3; i++ {
		if rows[i].TwoTierTree < rows[i].Quartz {
			t.Errorf("sources=%d: tree %.2f below quartz %.2f", rows[i].Sources, rows[i].TwoTierTree, rows[i].Quartz)
		}
	}
}
