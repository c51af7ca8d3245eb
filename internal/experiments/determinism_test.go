package experiments

import (
	"context"
	"testing"
)

// TestShardedExperimentsDeterministic locks in the sharding contract:
// cells run on a GOMAXPROCS worker pool, but because every cell owns
// its engine and seed and results merge by index, two same-seed runs
// render byte-identical reports. This must hold on any core count.
func TestShardedExperimentsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (string, error)
	}{
		{"validate", func() (string, error) {
			rows, err := validationGrid.Local(context.Background(), Params{Seed: 2014, Trials: 167})
			if err != nil {
				return "", err
			}
			return RenderValidation(rows), nil
		}},
		{"table8", func() (string, error) {
			rows, err := table8Grid.Local(context.Background(), Params{Seed: 2014})
			if err != nil {
				return "", err
			}
			return RenderTable8(rows), nil
		}},
		{"ablation-switch-model", func() (string, error) {
			rows, err := ablationGrid(ablationSwitch).Local(context.Background(), Params{Seed: 2014})
			if err != nil {
				return "", err
			}
			return RenderAblation("switch model", rows), nil
		}},
		{"ablation-ring-size", func() (string, error) {
			rows, err := ablationGrid(ablationRing).Local(context.Background(), Params{Seed: 2014})
			if err != nil {
				return "", err
			}
			return RenderAblation("ring size", rows), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			second, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Errorf("same-seed runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
			if first == "" {
				t.Error("empty report")
			}
		})
	}
}
