package quartz

import (
	"context"
	"fmt"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
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
		rows := experiments.Figure5(41, benchSeed)
		report(b, i, experiments.RenderFigure5(rows))
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, err := experiments.Figure6(context.Background(), 2000, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFigure6(grid))
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table8(context.Background(), experiments.Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderTable8(rows))
	}
}

func BenchmarkTable9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table9(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderTable9(rows))
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFigure10(rows))
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure14Sweep(context.Background(), experiments.Params{Seed: benchSeed, RPCs: 400})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFigure14(rows))
	}
}

func benchFigure17(b *testing.B, kind experiments.TaskKind, tasks int, panel string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure17(context.Background(), kind, experiments.Params{Seed: benchSeed, Tasks: tasks})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFigure17(panel, experiments.Figure17Architectures, rows))
	}
}

func BenchmarkFigure17Scatter(b *testing.B) {
	benchFigure17(b, experiments.ScatterKind, 8, "Figure 17(a): global scatter")
}

func BenchmarkFigure17Gather(b *testing.B) {
	benchFigure17(b, experiments.GatherKind, 8, "Figure 17(b): global gather")
}

func BenchmarkFigure17ScatterGather(b *testing.B) {
	benchFigure17(b, experiments.ScatterGatherKind, 4, "Figure 17(c): global scatter/gather")
}

func benchFigure18(b *testing.B, kind experiments.TaskKind, tasks int, panel string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure18(context.Background(), kind, experiments.Params{Seed: benchSeed, Tasks: tasks})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFigure17(panel, experiments.Figure18Architectures, rows))
	}
}

func BenchmarkFigure18Scatter(b *testing.B) {
	benchFigure18(b, experiments.ScatterKind, 6, "Figure 18(a): localized scatter")
}

func BenchmarkFigure18Gather(b *testing.B) {
	benchFigure18(b, experiments.GatherKind, 6, "Figure 18(b): localized gather")
}

func BenchmarkFigure18ScatterGather(b *testing.B) {
	benchFigure18(b, experiments.ScatterGatherKind, 5, "Figure 18(c): localized scatter/gather")
}

func BenchmarkFigure20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure20(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFigure20(rows))
	}
}

// Ablations: the design choices behind the headline results.

func BenchmarkAblationRingSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationRingSize(context.Background(), experiments.Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderAblation("Ablation: ring size (§7: size does not affect performance)", rows))
	}
}

func BenchmarkAblationSwitchModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSwitchModel(context.Background(), experiments.Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderAblation("Ablation: cut-through vs store-and-forward mesh", rows))
	}
}

func BenchmarkAblationVLBFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationVLBFraction(context.Background(), experiments.Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderAblation("Ablation: VLB indirect fraction at 45 Gb/s pathological load", rows))
	}
}

func BenchmarkAblationECMPMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationECMPMode(context.Background(), experiments.Params{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderAblation("Ablation: per-flow vs per-packet ECMP on the tree", rows))
	}
}

func BenchmarkFigure14TCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure14TCP(benchSeed, 400)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFigure14TCP(rows))
	}
}

func BenchmarkOversubscription(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OversubscriptionSweep(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderOversub(rows))
	}
}

func BenchmarkFlowCompletion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FlowCompletion(benchSeed, 150)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderFCT(rows))
	}
}

func BenchmarkStackComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StackComparison(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderStack(rows))
	}
}

func BenchmarkSchedulerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SchedulerComparison(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderScheduler(rows))
	}
}

func BenchmarkPriorityComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PriorityComparison(benchSeed, 400)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderPriority(rows))
	}
}

func BenchmarkSimulatorValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SimulatorValidation(context.Background(), experiments.Params{Seed: benchSeed, Trials: 3334})
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, experiments.RenderValidation(rows))
	}
}
