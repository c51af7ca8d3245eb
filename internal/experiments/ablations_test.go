package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestAblationRingSizeFlat(t *testing.T) {
	// §7: "the size of the ring does not affect performance" — latency
	// is flat across ring sizes (within 25%).
	rows, err := ablationGrid(ablationRing).Local(context.Background(), Params{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	base := rows[0].Latency
	for _, r := range rows {
		if r.Latency < base*0.75 || r.Latency > base*1.25 {
			t.Errorf("%s: %.2fus strays from %.2fus", r.Config, r.Latency, base)
		}
		if r.Drops != 0 {
			t.Errorf("%s: %d drops on an uncongested mesh", r.Config, r.Drops)
		}
	}
	if out := RenderAblation("ring size", rows); !strings.Contains(out, "32 switches") {
		t.Error("render missing configurations")
	}
}

func TestAblationSwitchModelGap(t *testing.T) {
	rows, err := ablationGrid(ablationSwitch).Local(context.Background(), Params{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ull, ccs := rows[0].Latency, rows[1].Latency
	// Two switch hops: CCS should cost roughly 2 x (6us - 0.38us) more.
	if ccs-ull < 8 || ccs-ull > 16 {
		t.Errorf("CCS-ULL gap = %.2fus, want ~11us (two hops)", ccs-ull)
	}
}

func TestAblationVLBFractionShape(t *testing.T) {
	rows, err := ablationGrid(ablationVLB).Local(context.Background(), Params{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Direct-only (fraction 0) saturates at 45 Gb/s through a 40 Gb/s
	// channel; moderate spreading does not.
	if rows[0].Latency < 3*rows[2].Latency {
		t.Errorf("direct-only %.1fus not far above fraction-0.25 %.1fus",
			rows[0].Latency, rows[2].Latency)
	}
	// Every spread fraction >= 0.25 stays in single-digit microseconds.
	for _, r := range rows[2:] {
		if r.Latency > 10 {
			t.Errorf("%s: %.1fus, want low", r.Config, r.Latency)
		}
	}
}

func TestAblationECMPMode(t *testing.T) {
	rows, err := ablationGrid(ablationECMP).Local(context.Background(), Params{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pinned, sprayed := rows[0].Latency, rows[1].Latency
	// Pinned flows collide on core ports; spraying is never worse.
	if sprayed > pinned*1.1 {
		t.Errorf("spraying %.2fus worse than pinning %.2fus", sprayed, pinned)
	}
}

func TestOversubscriptionSweep(t *testing.T) {
	rows, err := OversubscriptionSweep(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The balanced 33-switch ring is ~1:1; denser racks raise the ratio
	// monotonically and throughput falls monotonically.
	if rows[0].Ratio != 1.0 {
		t.Errorf("33-ring ratio = %v, want 1.0", rows[0].Ratio)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Ratio <= rows[i-1].Ratio {
			t.Errorf("ratio not increasing: %v", rows)
		}
		if rows[i].Permutation >= rows[i-1].Permutation {
			t.Errorf("throughput not decreasing with oversubscription: %v then %v",
				rows[i-1].Permutation, rows[i].Permutation)
		}
	}
	// Balanced ring keeps most of the ideal throughput.
	if rows[0].Permutation < 0.7 {
		t.Errorf("balanced ring permutation throughput = %v, want >= 0.7", rows[0].Permutation)
	}
	if out := RenderOversub(rows); !strings.Contains(out, "1.00:1") {
		t.Errorf("render missing balanced row:\n%s", out)
	}
}
