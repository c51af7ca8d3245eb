package experiments

import (
	"fmt"
	"strings"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/cost"
	"github.com/quartz-dcn/quartz/internal/table"
)

// Table8Row is one comparison of the §4.4 configurator: a baseline
// topology against a Quartz deployment at one datacenter size and
// utilization level.
type Table8Row struct {
	Size        string // "Small", "Medium", "Large"
	Servers     int
	Utilization string // "Low", "High"
	Baseline    string
	Quartz      string
	// Cost per server, USD, from the calibrated 2014 parts catalog.
	BaselineCostPerServer float64
	QuartzCostPerServer   float64
	// LatencyReduction is 1 - quartz/baseline mean latency, measured by
	// the packet simulator under a global scatter workload.
	LatencyReduction float64
}

// table8LoadTasks maps the utilization levels onto background task
// counts for the §7-scale simulations: "low" corresponds to a mean core
// utilization of ~50%, "high" to ~70-80%.
var table8LoadTasks = map[string]int{"Low": 4, "High": 7}

// table8Scenarios is the paper's six configurator comparison points.
var table8Scenarios = []struct {
	size, util       string
	servers          int
	baseline, quartz string
}{
	{"Small", "Low", 500, "two-tier tree", "single Quartz ring"},
	{"Small", "High", 500, "two-tier tree", "single Quartz ring"},
	{"Medium", "Low", 10_000, "three-tier tree", "quartz in edge"},
	{"Medium", "High", 10_000, "three-tier tree", "quartz in edge"},
	{"Large", "Low", 100_000, "three-tier tree", "quartz in core"},
	{"Large", "High", 100_000, "three-tier tree", "quartz in edge and core"},
}

// table8CostPerServer prices one architecture at one size with its
// core.Designs bill of materials and the calibrated 2014 parts catalog —
// pure arithmetic, no simulation.
func table8CostPerServer(arch string, servers int) (float64, error) {
	d, _ := core.FindDesign(func(d core.Design) bool { return d.Name == arch })
	if d.Cost == nil {
		return 0, fmt.Errorf("table8: no bill of materials for %q", arch)
	}
	bom, err := d.Cost(servers, cost.Default2014)
	if err != nil {
		return 0, err
	}
	return bom.PerServer(), nil
}

// table8Cell is one (scenario, arm) simulation of the configurator
// grid.
type table8Cell struct {
	arch  string
	tasks int
	seed  int64
}

// table8Grid is the 12-cell configurator grid: two arms (baseline at
// 2i, quartz at 2i+1) per scenario i, each an independent simulation
// seeded seed+i.
var table8Grid = Grid[table8Cell, float64, []Table8Row]{
	Name: "table8",
	Cells: func(p Params) []table8Cell {
		cells := make([]table8Cell, 0, 2*len(table8Scenarios))
		for i, sc := range table8Scenarios {
			tasks, seed := table8LoadTasks[sc.util], p.Seed+int64(i)
			cells = append(cells, table8Cell{sc.baseline, tasks, seed}, table8Cell{sc.quartz, tasks, seed})
		}
		return cells
	},
	// The cell's value is the architecture's mean global-scatter latency
	// at the scenario's load level.
	Run: func(_ Params, c table8Cell, sh Shared) (float64, error) {
		arch, err := sh.Arch(Fabric{Name: c.arch, Seed: c.seed})
		if err != nil {
			return 0, err
		}
		mean, _, err := runTasks(arch, ScatterKind, c.tasks, false, defaultFig17Params(ScatterKind), c.seed, sh)
		return mean, err
	},
	Merge: func(_ Params, _ []table8Cell, lats []float64) ([]Table8Row, error) {
		rows := make([]Table8Row, 0, len(table8Scenarios))
		for i, sc := range table8Scenarios {
			baseCost, err := table8CostPerServer(sc.baseline, sc.servers)
			if err != nil {
				return nil, err
			}
			quartzCost, err := table8CostPerServer(sc.quartz, sc.servers)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table8Row{
				Size:                  sc.size,
				Servers:               sc.servers,
				Utilization:           sc.util,
				Baseline:              sc.baseline,
				Quartz:                sc.quartz,
				BaselineCostPerServer: baseCost,
				QuartzCostPerServer:   quartzCost,
				LatencyReduction:      1 - lats[2*i+1]/lats[2*i],
			})
		}
		return rows, nil
	},
	Render: func(rows []Table8Row) Output {
		t := table.New("table8", len(rows), "Size", "Servers", "Utilization", "Baseline", "Quartz",
			"BaselineCostPerServer", "QuartzCostPerServer", "LatencyReduction")
		for _, r := range rows {
			t.Append(table.String(r.Size), table.Int(r.Servers), table.String(r.Utilization),
				table.String(r.Baseline), table.String(r.Quartz), table.Float(r.BaselineCostPerServer),
				table.Float(r.QuartzCostPerServer), table.Float(r.LatencyReduction))
		}
		return Output{Text: RenderTable8(rows), Tables: []table.Table{t}}
	},
}

// RenderTable8 renders the configurator table.
func RenderTable8(rows []Table8Row) string {
	var b strings.Builder
	b.WriteString("Table 8: approximate cost and latency comparison\n")
	fmt.Fprintf(&b, "%-8s %-6s %-18s %-24s %10s %18s\n",
		"size", "util", "baseline", "quartz option", "reduction", "$/server (b vs q)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-6s %-18s %-24s %9.0f%% %9.0f vs %.0f\n",
			fmt.Sprintf("%s(%d)", r.Size, r.Servers), r.Utilization,
			r.Baseline, r.Quartz, 100*r.LatencyReduction,
			r.BaselineCostPerServer, r.QuartzCostPerServer)
	}
	return b.String()
}
