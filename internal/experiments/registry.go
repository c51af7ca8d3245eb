// Registry of every reproduced table and figure. quartzsim -run all
// iterates All() instead of hand-maintaining a switch; a test parses
// this file to check All() calls every exported Figure*/Table*
// entrypoint.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/quartz-dcn/quartz/internal/cost"
	"github.com/quartz-dcn/quartz/internal/table"
)

// Output is what one experiment produced: rendered text plus the tables
// it exports, each named by its file stem (e.g. "figure5"), and the
// number of simulator events the run processed — a value of the run
// like its text (0 for an experiment that never enters the event loop),
// and no part of its cache key.
type Output struct {
	Text   string
	Tables []table.Table
	Events uint64
}

// Experiment is one registry entry.
type Experiment struct {
	// Name is the CLI selector (quartzsim -run <name>).
	Name string
	// Title is the heading printed above the output.
	Title string
	// Section is the paper section the experiment reproduces ("ext."
	// entries go beyond the paper).
	Section string
	// Run executes the experiment. Implementations honor ctx where the
	// underlying runner does.
	Run func(ctx context.Context, p Params) (Output, error)
	// Sweep, when non-nil, publishes the experiment's cell grid for
	// distributed execution: internal/service accepts cell-range
	// sub-jobs for it and internal/cluster shards it across workers.
	// Entries with a Sweep are declared as a Grid (sweep.go) and use
	// Sweep.Run as their Run, so local and cluster-merged output are
	// byte-identical by construction.
	Sweep *Sweep
}

// The registry's grid experiments — every one that runs the event loop
// (one Sweep instance each, so every All() call hands out the same
// grid).
var (
	figureF6Sweep   = figureF6Grid.Sweep()
	table8Sweep     = table8Grid.Sweep()
	figure14Sweep   = figure14Grid.Sweep()
	figure17Sweep   = figure17.grid().Sweep()
	figure18Sweep   = figure18.grid().Sweep()
	figure20Sweep   = figure20Grid.Sweep()
	stackSweep      = stackGrid.Sweep()
	validationSweep = validationGrid.Sweep()
	prioritySweep   = priorityGrid.Sweep()
	ablationSweep   = ablationGrid(ablationRing, ablationSwitch, ablationVLB, ablationECMP).Sweep()
)

// Find returns the experiment registered under name (case-insensitive).
func Find(name string) (Experiment, bool) {
	name = strings.ToLower(name)
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns the registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{
			Name: "table2", Title: "Table 2: network latency components", Section: "§2.1",
			Run: func(context.Context, Params) (Output, error) {
				return Output{Text: table2Text}, nil
			},
		},
		{
			Name: "fig5", Title: "Figure 5: optimal wavelength assignment", Section: "§3.3",
			Run: func(_ context.Context, p Params) (Output, error) {
				rows := Figure5(41, p.Seed)
				t := table.New("figure5", len(rows), "RingSize", "Greedy", "Optimal")
				for _, r := range rows {
					t.Append(table.Int(r.RingSize), table.Int(r.Greedy), table.Int(r.Optimal))
				}
				return Output{Text: RenderFigure5(rows), Tables: []table.Table{t}}, nil
			},
		},
		{
			Name: "fig6", Title: "Figure 6: fault tolerance under fiber cuts", Section: "§3.5",
			Run: func(ctx context.Context, p Params) (Output, error) {
				grid, err := Figure6(ctx, p.Seed)
				if err != nil {
					return Output{}, err
				}
				return Output{Text: RenderFigure6(grid)}, nil
			},
		},
		{
			Name: "f6dynamic", Title: "Figure 6 (dynamic): mid-run fiber cut and reconvergence", Section: "§3.5",
			Run: figureF6Sweep.Run, Sweep: figureF6Sweep,
		},
		{
			Name: "table8", Title: "Table 8: cost and latency configurator", Section: "§4.2",
			Run: table8Sweep.Run, Sweep: table8Sweep,
		},
		{
			Name: "table9", Title: "Table 9: topology comparison at ~1k ports", Section: "§5",
			Run: func(_ context.Context, p Params) (Output, error) {
				rows, err := Table9(p.Seed)
				if err != nil {
					return Output{}, err
				}
				t := table.New("table9", len(rows),
					"Network", "SwitchHops", "ServerHops", "Latency", "Switches", "Wiring", "Diversity", "WDMWiring")
				for _, r := range rows {
					t.Append(table.String(r.Network), table.Int(r.SwitchHops), table.Int(r.ServerHops),
						table.Fixed(r.Latency.Micros(), 3), table.Int(r.Switches), table.Int(r.Wiring),
						table.Int(r.Diversity), table.Int(r.WDMWiring))
				}
				return Output{Text: RenderTable9(rows), Tables: []table.Table{t}}, nil
			},
		},
		{
			Name: "fig10", Title: "Figure 10: normalized throughput", Section: "§5.1",
			Run: func(ctx context.Context, p Params) (Output, error) {
				rows, err := Figure10(ctx, p.Seed)
				if err != nil {
					return Output{}, err
				}
				return Output{Text: RenderFigure10(rows)}, nil
			},
		},
		{
			Name: "fig14", Title: "Figure 14: prototype cross-traffic experiment", Section: "§6.1",
			Run: figure14Sweep.Run, Sweep: figure14Sweep,
		},
		{
			Name: "fig17", Title: "Figure 17: global task latency", Section: "§7.1",
			Run: figure17Sweep.Run, Sweep: figure17Sweep,
		},
		{
			Name: "fig18", Title: "Figure 18: localized task latency", Section: "§7.1",
			Run: figure18Sweep.Run, Sweep: figure18Sweep,
		},
		{
			Name: "fig20", Title: "Figure 20: pathological traffic pattern", Section: "§7.2",
			Run: figure20Sweep.Run, Sweep: figure20Sweep,
		},
		{
			Name: "table16", Title: "Table 16: simulated switch models", Section: "§7",
			Run: func(context.Context, Params) (Output, error) {
				return Output{Text: table16Text}, nil
			},
		},
		{
			Name: "oversub", Title: "Oversubscription tradeoff (§3): n:k port split", Section: "§3.2",
			Run: func(_ context.Context, p Params) (Output, error) {
				rows, err := OversubscriptionSweep(p.Seed)
				if err != nil {
					return Output{}, err
				}
				return Output{Text: RenderOversub(rows)}, nil
			},
		},
		{
			Name: "stack", Title: "Table 2 composition: order-of-magnitude stack walk", Section: "§2.1",
			Run: stackSweep.Run, Sweep: stackSweep,
		},
		{
			Name: "fig1", Title: "Figure 1 extrapolation: Quartz premium vs WDM price decline", Section: "§1",
			Run: func(context.Context, Params) (Output, error) {
				rows, err := cost.WDMCostTrend(12, 4)
				if err != nil {
					return Output{}, err
				}
				var b strings.Builder
				fmt.Fprintf(&b, "%6s %12s %14s %14s\n", "year", "WDM price", "ring premium", "edge premium")
				for _, r := range rows {
					fmt.Fprintf(&b, "%6d %11.0f%% %13.1f%% %13.1f%%\n",
						2014+r.Year, 100*r.WDMPriceFactor, 100*r.RingPremium, 100*r.EdgePremium)
				}
				return Output{Text: b.String()}, nil
			},
		},
		{
			Name: "validate", Title: "Simulator validation against queueing theory (§7)", Section: "§7",
			Run: validationSweep.Run, Sweep: validationSweep,
		},
		{
			Name: "prio", Title: "Extension: priority queueing vs topology (DeTail, §2.1.4)", Section: "§2.1.4",
			Run: prioritySweep.Run, Sweep: prioritySweep,
		},
		{
			Name: "ablations", Title: "Ablations: ring size, switch model, VLB fraction, ECMP mode", Section: "ext.",
			Run: ablationSweep.Run, Sweep: ablationSweep,
		},
	}
}

const table2Text = `Table 2: network latencies of different components
component          standard        state of the art
OS network stack   15 us           1 - 4 us
NIC                2.5 - 32 us     0.5 us
Switch             6 us            0.5 us (380 ns modelled)
Congestion         50 us           (workload dependent)
`

const table16Text = `Table 16: switches used in the simulations
switch                    latency     ports
Cisco Nexus 7000 (CCS)    6 us        768 x 10G or 192 x 40G
Arista 7150S-64 (ULL)     380 ns      64 x 10G or 16 x 40G
`
