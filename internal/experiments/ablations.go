package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// The ablations isolate the design choices behind Quartz's results:
// ring size (§7 claims it does not matter), cut-through switching,
// the VLB split, and per-packet load balancing.

// AblationRow is one configuration's measured mean latency.
type AblationRow struct {
	Config  string
	Latency float64 // µs
	CI      float64
	Drops   uint64
}

// RenderAblation renders a generic ablation table.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-34s %14s %10s\n", title, "configuration", "latency (us)", "drops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %8.2f ±%4.2f %10d\n", r.Config, r.Latency, r.CI, r.Drops)
	}
	return b.String()
}

// meshScatterLatency measures one scatter task's latency, a sender and
// 12 receivers, on a mesh of m switches of 4 hosts, all of the given
// model: the row config.
func meshScatterLatency(config string, m int, model netsim.SwitchModel, seed int64, sh Shared) (AblationRow, error) {
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: m, HostsPerSwitch: 4})
	if err != nil {
		return AblationRow{}, err
	}
	hosts := g.Hosts()
	const end = 5 * sim.Millisecond
	pk, err := sh.Build(PacketRun{
		Arch: core.NewDesign(g.Name, g, nil), Switches: model,
		Kind: ScatterKind, Tasks: 1, PPS: 30e3, Seed: seed, End: end,
	}, func(_ int, rng *rand.Rand) ([]topology.NodeID, [][2]topology.NodeID) {
		perm := rng.Perm(len(hosts))
		members := make([]topology.NodeID, 13)
		for i := range members {
			members[i] = hosts[perm[i]]
		}
		return members, nil
	})
	if err != nil {
		return AblationRow{}, err
	}
	defer pk.Release()
	if err := sh.Run(pk.Net, end+sim.Millisecond); err != nil {
		return AblationRow{}, err
	}
	s := pk.Harness.Latency(10)
	return AblationRow{Config: config, Latency: s.Mean(), CI: s.CI95(), Drops: pk.Net.Dropped()}, nil
}

// ablationRingSizes is the ring-size ablation's sweep axis.
var ablationRingSizes = []int{4, 8, 16, 32}

// ablationRingCell runs one ring-size configuration.
func ablationRingCell(i int, seed int64, sh Shared) (AblationRow, error) {
	n := ablationRingSizes[i]
	return meshScatterLatency(fmt.Sprintf("quartz ring, %d switches", n), n, netsim.Arista7150, seed, sh)
}

// ablationSwitchModels is the switch-model ablation's sweep axis.
var ablationSwitchModels = []struct {
	name  string
	model netsim.SwitchModel
}{
	{"mesh of ULL (380ns cut-through)", netsim.Arista7150},
	{"mesh of CCS (6us store-and-forward)", netsim.CiscoNexus7000},
}

// ablationSwitchCell runs one switch-model configuration.
func ablationSwitchCell(i int, seed int64, sh Shared) (AblationRow, error) {
	return meshScatterLatency(ablationSwitchModels[i].name, 8, ablationSwitchModels[i].model, seed, sh)
}

// ablationVLBFracs is the VLB-fraction ablation's sweep axis.
var ablationVLBFracs = []float64{0, 0.125, 0.25, 0.5, 0.75, 1.0}

// ablationVLBCell runs one VLB indirect fraction on fig20's ring.
func ablationVLBCell(i int, seed int64, sh Shared) (AblationRow, error) {
	frac := ablationVLBFracs[i]
	arch, err := sh.Arch(Fabric{Name: fig20Quartz, VLB: frac})
	if err != nil {
		return AblationRow{}, err
	}
	v, err := runFig20(arch, 45*sim.Gbps, seed, sh)
	if err != nil {
		return AblationRow{}, err
	}
	row := AblationRow{
		Config:  fmt.Sprintf("VLB indirect fraction %.3f", frac),
		Latency: v.Mean,
	}
	if v.Saturated {
		row.Config += " (saturated)"
	}
	return row, nil
}

// ablationECMPModes is the ECMP-mode ablation's sweep axis.
var ablationECMPModes = []struct {
	name      string
	perPacket bool
}{
	{"three-tier, per-flow ECMP", false},
	{"three-tier, per-packet spraying", true},
}

// ablationECMPCell runs one ECMP mode on the run's three-tier tree,
// routed per flow in a copy of its own.
func ablationECMPCell(i int, seed int64, sh Shared) (AblationRow, error) {
	arch, err := sh.Arch(Fabric{Name: "three-tier tree"})
	if err != nil {
		return AblationRow{}, err
	}
	if !ablationECMPModes[i].perPacket {
		perFlow := *arch
		perFlow.Router = routing.NewECMP(arch.Graph)
		arch = &perFlow
	}
	params := defaultFig17Params(ScatterKind)
	mean, ci, err := runTasks(arch, ScatterKind, 6, false, params, seed, sh)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{Config: ablationECMPModes[i].name, Latency: mean, CI: ci}, nil
}

// ablationPart is one axis of the ablation grid.
type ablationPart struct {
	label string
	n     int
	cell  func(i int, seed int64, sh Shared) (AblationRow, error)
}

// The four ablation axes. Ring size tests the §7 claim that "the size
// of the ring does not affect performance" (a scatter task on meshes of
// 4..32 switches). Switch model isolates the cut-through contribution:
// the same mesh of ULL cut-through switches versus CCS store-and-forward
// chassis. VLB fraction sweeps the indirect fraction on the Figure 20
// pathological pattern at 45 Gb/s — just past the direct channel's
// capacity — showing the adaptive tradeoff of §3.4: too little spreading
// saturates the direct link, too much wastes capacity on two-hop
// detours. ECMP mode compares per-flow pinning against per-packet
// spraying on the three-tier tree under the Figure 17 scatter load:
// pinned flows collide on the few core ports and inflate the tail.
var (
	ablationRing   = ablationPart{"ring size", len(ablationRingSizes), ablationRingCell}
	ablationSwitch = ablationPart{"switch model", len(ablationSwitchModels), ablationSwitchCell}
	ablationVLB    = ablationPart{"VLB fraction at 45 Gb/s", len(ablationVLBFracs), ablationVLBCell}
	ablationECMP   = ablationPart{"ECMP mode", len(ablationECMPModes), ablationECMPCell}
)

// ablationCell is configuration i of one axis.
type ablationCell struct {
	part int // index into the grid's parts
	axis string
	i    int
}

// ablationGrid lays the given axes end to end into one grid; its rows
// are the cells' rows in that order.
func ablationGrid(parts ...ablationPart) Grid[ablationCell, AblationRow, []AblationRow] {
	return Grid[ablationCell, AblationRow, []AblationRow]{
		Name: "ablations",
		Cells: func(Params) []ablationCell {
			var cells []ablationCell
			for k, part := range parts {
				for i := 0; i < part.n; i++ {
					cells = append(cells, ablationCell{k, part.label, i})
				}
			}
			return cells
		},
		Run: func(p Params, c ablationCell, sh Shared) (AblationRow, error) {
			return parts[c.part].cell(c.i, p.Seed, sh)
		},
		Merge: func(_ Params, _ []ablationCell, rows []AblationRow) ([]AblationRow, error) {
			return rows, nil
		},
		// The four tables in axis order.
		Render: func(rows []AblationRow) Output {
			var b strings.Builder
			for _, part := range parts {
				b.WriteString(RenderAblation(part.label, rows[:part.n]))
				rows = rows[part.n:]
			}
			return Output{Text: b.String()}
		},
	}
}
