package experiments

import (
	"context"
	"reflect"
	"testing"
)

// meanDelivered averages Delivered over the windows in the given phase.
func meanDelivered(res FigureF6Result, phase string) float64 {
	sum, n := 0, 0
	for _, w := range res.Windows {
		if w.Phase == phase {
			sum += w.Delivered
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func TestFigureF6DipAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level run")
	}
	res, err := figureF6Grid.Local(context.Background(), Params{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeveredLinks == 0 {
		t.Fatal("fiber cut severed no links")
	}
	// The schedule produces cut, reconverge, repair, reconverge.
	if len(res.Changes) != 4 {
		t.Fatalf("recorded %d fault changes, want 4", len(res.Changes))
	}
	if res.Changes[0].Repair || res.Changes[0].Reconverged ||
		!res.Changes[1].Reconverged || !res.Changes[2].Repair ||
		!(res.Changes[3].Repair && res.Changes[3].Reconverged) {
		t.Errorf("change sequence out of order: %+v", res.Changes)
	}
	if res.Changes[0].DeadLinks != res.SeveredLinks {
		t.Errorf("cut left %d links dead, want %d", res.Changes[0].DeadLinks, res.SeveredLinks)
	}

	before := meanDelivered(res, "before")
	rerouted := meanDelivered(res, "rerouted")
	repaired := meanDelivered(res, "repaired")
	if before == 0 || rerouted == 0 || repaired == 0 {
		t.Fatalf("empty phase: before=%.0f rerouted=%.0f repaired=%.0f", before, rerouted, repaired)
	}
	// During the blackhole some streams lose every packet; the affected
	// pairs' traffic must reappear once routes avoid the severed links.
	dropsDuringBlackhole := 0
	for _, w := range res.Windows {
		if w.Phase == "blackhole" {
			dropsDuringBlackhole += w.Dropped
		}
	}
	if dropsDuringBlackhole == 0 {
		t.Error("no drops in the blackhole window despite severed links")
	}
	// Rerouted and repaired phases recover to at least 90% of baseline.
	if rerouted < 0.9*before {
		t.Errorf("rerouted mean %.1f below 90%% of before mean %.1f", rerouted, before)
	}
	if repaired < 0.9*before {
		t.Errorf("repaired mean %.1f below 90%% of before mean %.1f", repaired, before)
	}
	// And drops stop after reconvergence.
	for _, w := range res.Windows[1:] {
		if w.Phase == "repaired" && w.Start > res.Changes[3].At && w.Dropped > 0 {
			t.Errorf("window at %v still dropping after repair reconvergence", w.Start)
		}
	}
}

func TestFigureF6Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level run")
	}
	a, err := figureF6Grid.Local(context.Background(), Params{Seed: 2014})
	if err != nil {
		t.Fatal(err)
	}
	b, err := figureF6Grid.Local(context.Background(), Params{Seed: 2014})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with the same seed differ")
	}
	if RenderFigureF6(a) == "" {
		t.Error("empty rendering")
	}
}

func TestFigureF6Cancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := figureF6Grid.Local(ctx, Params{Seed: 1}); err == nil {
		t.Error("cancelled context did not abort the run")
	}
}
