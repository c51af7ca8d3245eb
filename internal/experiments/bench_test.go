package experiments

import (
	"context"
	"fmt"
	"testing"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation; `go test -bench=. -benchmem` prints each experiment's
// rows once (on the first iteration) and reports the cost of
// regenerating it. cmd/quartzbench offers the same experiments with
// adjustable parameters.

const benchSeed = 2014 // SIGCOMM'14

// report prints an experiment's rendered table once per benchmark run.
func report(b *testing.B, i int, table string) {
	b.Helper()
	if i == 0 {
		fmt.Printf("\n%s\n", table)
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Figure5(41, benchSeed)
		report(b, i, RenderFigure5(rows))
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, err := Figure6(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderFigure6(grid))
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := table8Grid.Local(context.Background(), Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderTable8(rows))
	}
}

func BenchmarkTable9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table9(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderTable9(rows))
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Figure10(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderFigure10(rows))
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figure14Grid.Local(context.Background(), Params{Seed: benchSeed, RPCs: 400})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderFigure14(rows))
	}
}

func benchFigure17(b *testing.B, kind TaskKind, tasks int, panel string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := figure17.panel(context.Background(), kind, Params{Seed: benchSeed, Tasks: tasks})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderFigure17(panel, Figure17Architectures, rows))
	}
}

func BenchmarkFigure17Scatter(b *testing.B) {
	benchFigure17(b, ScatterKind, 8, "Figure 17(a): global scatter")
}

func BenchmarkFigure17Gather(b *testing.B) {
	benchFigure17(b, GatherKind, 8, "Figure 17(b): global gather")
}

func BenchmarkFigure17ScatterGather(b *testing.B) {
	benchFigure17(b, ScatterGatherKind, 4, "Figure 17(c): global scatter/gather")
}

func benchFigure18(b *testing.B, kind TaskKind, tasks int, panel string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := figure18.panel(context.Background(), kind, Params{Seed: benchSeed, Tasks: tasks})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderFigure17(panel, Figure18Architectures, rows))
	}
}

func BenchmarkFigure18Scatter(b *testing.B) {
	benchFigure18(b, ScatterKind, 6, "Figure 18(a): localized scatter")
}

func BenchmarkFigure18Gather(b *testing.B) {
	benchFigure18(b, GatherKind, 6, "Figure 18(b): localized gather")
}

func BenchmarkFigure18ScatterGather(b *testing.B) {
	benchFigure18(b, ScatterGatherKind, 5, "Figure 18(c): localized scatter/gather")
}

func BenchmarkFigure20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figure20Grid.Local(context.Background(), Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderFigure20(rows))
	}
}

// Ablations: the design choices behind the headline results.

func BenchmarkAblationRingSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := ablationGrid(ablationRing).Local(context.Background(), Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderAblation("Ablation: ring size (§7: size does not affect performance)", rows))
	}
}

func BenchmarkAblationSwitchModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := ablationGrid(ablationSwitch).Local(context.Background(), Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderAblation("Ablation: cut-through vs store-and-forward mesh", rows))
	}
}

func BenchmarkAblationVLBFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := ablationGrid(ablationVLB).Local(context.Background(), Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderAblation("Ablation: VLB indirect fraction at 45 Gb/s pathological load", rows))
	}
}

func BenchmarkAblationECMPMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := ablationGrid(ablationECMP).Local(context.Background(), Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderAblation("Ablation: per-flow vs per-packet ECMP on the tree", rows))
	}
}

func BenchmarkOversubscription(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := OversubscriptionSweep(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderOversub(rows))
	}
}

func BenchmarkStackComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := stackGrid.Local(context.Background(), Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderStack(rows))
	}
}

func BenchmarkPriorityComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := priorityGrid.Local(context.Background(), Params{Seed: benchSeed, RPCs: 400})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderPriority(rows))
	}
}

func BenchmarkSimulatorValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := validationGrid.Local(context.Background(), Params{Seed: benchSeed, Trials: 3334})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, RenderValidation(rows))
	}
}
