package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// TaskKind selects the §7.1 workload.
type TaskKind int

// Workload kinds of Figures 17 and 18, and PairsKind: a task of one
// stream per host pair (traffic.Pairs).
const (
	ScatterKind TaskKind = iota
	GatherKind
	ScatterGatherKind
	PairsKind
)

// String names the workload kind as the figures label it.
func (k TaskKind) String() string {
	switch k {
	case ScatterKind:
		return "scatter"
	case GatherKind:
		return "gather"
	case ScatterGatherKind:
		return "scatter/gather"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Figure17Architectures lists the compared designs in the paper's
// legend order. Jellyfish and Quartz-in-Jellyfish perform almost
// identically on global patterns (§7.1), and the figure omits the
// latter; both are available here.
var Figure17Architectures = []string{
	"three-tier tree", "jellyfish", "quartz in core", "quartz in edge", "quartz in edge and core",
}

// Figure18Architectures lists the designs compared on localized
// patterns (Figure 18).
var Figure18Architectures = []string{
	"three-tier tree", "jellyfish", "quartz in jellyfish", "quartz in edge and core",
}

// Figure17Row is one x-position: mean per-packet latency (µs) by
// architecture at a given number of concurrent tasks.
type Figure17Row struct {
	Tasks   int
	Latency map[string]float64 // architecture -> mean latency in µs
	CI      map[string]float64 // 95% CI half-width
}

// fig17Params tunes the workload: per-destination packet rate and the
// fan-out of each task. The defaults produce the paper's operating
// regime: the three-tier tree's shared 40 Gb/s links and CCS core run
// into queueing as tasks are added, while Quartz designs stay flat.
type fig17Params struct {
	receivers int     // fan-out (or fan-in) of each task
	pps       float64 // packets/s per stream
	warm      sim.Time
	measure   sim.Time
}

func defaultFig17Params(kind TaskKind) fig17Params {
	p := fig17Params{
		receivers: 16,
		// 18k packets/s per stream: at 8 tasks the CCS core ports
		// (one 400 B frame per 6 us, ~166k frames/s) run near 80%
		// utilization — the paper's operating regime, where the tree's
		// latency roughly doubles while all-ULL designs stay flat.
		pps:     18e3,
		warm:    1 * sim.Millisecond,
		measure: 20 * sim.Millisecond,
	}
	if kind == GatherKind {
		// Gather concentrates all of a task's streams on one pod's core
		// downlinks; a lower per-stream rate keeps multiple co-located
		// tasks below port saturation, as in the paper's gently rising
		// gather curve.
		p.pps = 14e3
	}
	if kind == ScatterGatherKind {
		// Requests plus replies double the core load; at 4 tasks the
		// core ports tip just past saturation, reproducing the paper's
		// latency jump from 3 to 4 tasks. The shorter window bounds the
		// post-saturation queue growth.
		p.pps = 28e3
		p.measure = 4 * sim.Millisecond
	}
	return p
}

// runTasks measures mean packet latency with n concurrent tasks of the
// given kind on one architecture. When local is true, the first task's
// endpoints all sit in one pod ("nearby racks", Figure 18) and only
// that task is measured; the remaining tasks are global cross-traffic.
// The cell's network and generators come from the run's free lists and
// go back to them on return.
func runTasks(arch *core.Architecture, kind TaskKind, n int, local bool, params fig17Params, seed int64, sh Shared) (mean, ci float64, err error) {
	hosts := arch.Graph.Hosts()
	// buf holds one task's endpoints, which the task loop copies out
	// before the next pick.
	buf := make([]topology.NodeID, 0, params.receivers+1)
	pick := func(task int, rng *rand.Rand) ([]topology.NodeID, [][2]topology.NodeID) {
		out := buf[:0]
		if local && task == 0 {
			// "Nearby racks" (§7.1): racks 2..5 — four adjacent racks that
			// straddle the first pod boundary. A three-tier tree must carry
			// half of this traffic over its loaded core tier, whereas the
			// Quartz designs keep it on cheap ULL paths (rings plus the ULL
			// core ring or the inter-ring links) — the paper's locality
			// argument (§4.1).
			var lh []topology.NodeID
			for rack := 2; rack < 6; rack++ {
				lh = append(lh, arch.Graph.HostsInRack(rack)...)
			}
			// Local tasks address fewer targets (§7.1): half the global
			// fan-out, all within the pod.
			k := min(params.receivers/2+1, len(lh)-1)
			for _, i := range rng.Perm(len(lh))[:k+1] {
				out = append(out, lh[i])
			}
			return out, nil
		}
		for len(out) < params.receivers+1 {
			if c := hosts[rng.Intn(len(hosts))]; !slices.Contains(out, c) {
				out = append(out, c)
			}
		}
		return out, nil
	}
	end := params.warm + params.measure
	pk, err := sh.Build(PacketRun{Arch: arch, Kind: kind, Tasks: n, PPS: params.pps, Seed: seed, End: end}, pick)
	if err != nil {
		return 0, 0, err
	}
	defer pk.Release()
	if err := sh.Run(pk.Net, end+2*sim.Millisecond); err != nil {
		return 0, 0, err
	}

	// Aggregate: mean per-packet latency over the measured tasks, only
	// the first when local. For scatter/gather the round trip is request
	// mean + reply mean.
	if local {
		n = 1
	}
	sum, ciSum, count := 0.0, 0.0, 0
	for task := 0; task < n; task++ {
		req := pk.Harness.Latency(10 * (task + 1))
		if req.N() == 0 {
			continue
		}
		m, c := req.Mean(), req.CI95()
		if kind == ScatterGatherKind {
			if rep := pk.Harness.Latency(10*(task+1) + 1); rep.N() > 0 {
				m, c = m+rep.Mean(), c+rep.CI95()
			}
		}
		sum, ciSum, count = sum+m, ciSum+c, count+1
	}
	if count == 0 {
		return 0, 0, fmt.Errorf("experiments: no measured task delivered anything")
	}
	return sum / float64(count), ciSum / float64(count), nil
}

// taskPanel is one sub-figure: a workload kind swept over 1..Params.Tasks
// concurrent tasks, capped where the paper's panel ends.
type taskPanel struct {
	kind  TaskKind
	cap   int
	label string
}

// taskFigure describes Figure 17 or Figure 18. panels is indexed by
// TaskKind.
type taskFigure struct {
	name   string
	local  bool // Figure 18: measure one localized task under global cross-traffic
	archs  []string
	panels []taskPanel
	csv    string // table name prefix; "" exports no tables
}

var figure17 = taskFigure{
	name: "fig17", archs: Figure17Architectures, csv: "figure17-",
	panels: []taskPanel{
		{ScatterKind, math.MaxInt, "Figure 17(a): scatter"},
		{GatherKind, math.MaxInt, "Figure 17(b): gather"},
		{ScatterGatherKind, 4, "Figure 17(c): scatter/gather"},
	},
}

var figure18 = taskFigure{
	name: "fig18", local: true, archs: Figure18Architectures,
	panels: []taskPanel{
		{ScatterKind, 6, "Figure 18(a): localized scatter"},
		{GatherKind, 6, "Figure 18(b): localized gather"},
		{ScatterGatherKind, 5, "Figure 18(c): localized scatter/gather"},
	},
}

// taskCell is one simulation: an architecture under a number of
// concurrent tasks of one panel's kind.
type taskCell struct {
	panel, tasks int
	arch         string
}

// meanCI is the value of a latency cell: a mean and its 95% CI
// half-width.
type meanCI struct{ Mean, CI float64 }

// grid flattens the figure panel-major into one grid; its rows are one
// []Figure17Row per panel.
func (f taskFigure) grid() Grid[taskCell, meanCI, [][]Figure17Row] {
	return Grid[taskCell, meanCI, [][]Figure17Row]{
		Name: f.name,
		Cells: func(p Params) []taskCell {
			var cells []taskCell
			for k, pn := range f.panels {
				for n := 1; n <= min(p.Tasks, pn.cap); n++ {
					for _, name := range f.archs {
						cells = append(cells, taskCell{k, n, name})
					}
				}
			}
			return cells
		},
		Run: func(p Params, c taskCell, sh Shared) (meanCI, error) {
			arch, err := sh.Arch(Fabric{Name: c.arch, Seed: p.Seed})
			if err != nil {
				return meanCI{}, err
			}
			kind := f.panels[c.panel].kind
			m, ci, err := runTasks(arch, kind, c.tasks, f.local, defaultFig17Params(kind), p.Seed+int64(100*c.tasks), sh)
			return meanCI{m, ci}, err
		},
		Merge: func(_ Params, cells []taskCell, vals []meanCI) ([][]Figure17Row, error) {
			panels := make([][]Figure17Row, len(f.panels))
			for i, c := range cells {
				if c.tasks > len(panels[c.panel]) {
					panels[c.panel] = append(panels[c.panel],
						Figure17Row{Tasks: c.tasks, Latency: map[string]float64{}, CI: map[string]float64{}})
				}
				row := panels[c.panel][c.tasks-1]
				row.Latency[c.arch], row.CI[c.arch] = vals[i].Mean, vals[i].CI
			}
			return panels, nil
		},
		Render: func(panels [][]Figure17Row) Output {
			var b strings.Builder
			for k, pn := range f.panels {
				b.WriteString(RenderFigure17(pn.label, f.archs, panels[k]))
			}
			out := Output{Text: b.String()}
			if f.csv != "" {
				out.Tables = f.tables(panels)
			}
			return out
		},
	}
}

// tables exports each panel as the table <csv><kind>: the task count,
// then every architecture's latency, then every CI, architectures in
// name order.
func (f taskFigure) tables(panels [][]Figure17Row) []table.Table {
	archs := slices.Clone(f.archs)
	slices.Sort(archs)
	columns := make([]string, 1, 1+2*len(archs))
	columns[0] = "Tasks"
	for _, a := range archs {
		columns = append(columns, "Latency:"+a)
	}
	for _, a := range archs {
		columns = append(columns, "CI:"+a)
	}
	tables := make([]table.Table, len(panels))
	row := make([]table.Cell, len(columns))
	for k, pn := range f.panels {
		t := table.New(f.csv+strings.ReplaceAll(pn.kind.String(), "/", "-"), len(panels[k]), columns...)
		for _, r := range panels[k] {
			row[0] = table.Int(r.Tasks)
			for i, a := range archs {
				row[1+i], row[1+len(archs)+i] = table.Float(r.Latency[a]), table.Float(r.CI[a])
			}
			t.Append(row...)
		}
		tables[k] = t
	}
	return tables
}

// RenderFigure17 renders a task sweep.
func RenderFigure17(title string, archs []string, rows []Figure17Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: mean latency per packet (us)\n", title)
	fmt.Fprintf(&b, "%6s", "tasks")
	for _, a := range archs {
		fmt.Fprintf(&b, "%26s", a)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d", r.Tasks)
		for _, a := range archs {
			fmt.Fprintf(&b, "%26s", fmt.Sprintf("%.2f ±%.2f", r.Latency[a], r.CI[a]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
