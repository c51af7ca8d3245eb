package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// Figure20Row is one x-position of Figure 20: mean packet latency for
// the pathological switch-pair pattern at a given aggregate bandwidth.
type Figure20Row struct {
	// Aggregate is the traffic pushed from switch S1's hosts to switch
	// S2's hosts.
	Aggregate sim.Rate
	// NonBlocking is the latency through an idealized non-blocking core
	// switch (µs).
	NonBlocking float64
	// QuartzECMP uses only the direct S1-S2 channel; it saturates past
	// the 40 Gb/s link rate ("unbounded" in the paper, marked 125 µs).
	QuartzECMP float64
	// QuartzVLB spreads over the direct and two-hop paths.
	QuartzVLB float64
	// ECMPSaturated flags the unbounded regime.
	ECMPSaturated bool
}

// fig20Ring builds the 4-switch 40 GbE Quartz ring of Figure 19(a) with
// four 40 Gb/s hosts per switch.
func fig20Ring() (*topology.Graph, error) {
	g, err := topology.NewFullMesh(topology.MeshConfig{
		Switches:       4,
		HostsPerSwitch: 4,
		HostRate:       40 * sim.Gbps,
		MeshRate:       40 * sim.Gbps,
	})
	if err != nil {
		return nil, err
	}
	g.Name = "fig20-quartz-ring"
	return g, nil
}

// fig20Star builds the non-blocking core switch of Figure 19(b): all
// hosts on one big switch over 40 Gb/s links.
func fig20Star() *topology.Graph {
	g := topology.New("fig20-core-switch")
	core := g.AddSwitch("core", topology.TierCore, -1)
	for r := 0; r < 2; r++ {
		g.AddHosts(core, r, 4, 40*sim.Gbps)
	}
	return g
}

// nonBlockingCore models the §7.2 comparison switch: a store-and-
// forward chassis with the CCS's 6 µs transit but a non-blocking
// fabric — by the figure's premise it never congests internally, so
// its ports run at wire speed.
var nonBlockingCore = netsim.SwitchModel{
	Latency:     6 * sim.Microsecond,
	CutThrough:  false,
	BufferBytes: 4 << 20,
}

// fig20PacketSize: the pathological flows are bulk traffic; full-size
// frames keep the event counts tractable at 50 Gb/s.
const fig20PacketSize = 1500

// fig20's fabrics as Shared.Arch knows them (ownFabric).
const (
	fig20Switch = "fig20 core switch"
	fig20Quartz = "fig20 quartz ring"
)

// fig20Systems are the three systems of §7.2, in column order: a
// non-blocking core switch, Quartz with ECMP (direct paths only), and
// Quartz with VLB (40% of traffic detoured over the two-hop paths).
var fig20Systems = []Fabric{{Name: fig20Switch}, {Name: fig20Quartz}, {Name: fig20Quartz, VLB: 0.4}}

// fig20Value is one system's mean packet latency (µs) at one load, and
// whether it saturated (more than 1% of packets dropped).
type fig20Value struct {
	Mean      float64
	Saturated bool
}

// runFig20 measures mean latency for the pattern on one system, on a
// network and generators borrowed from the run: each host of rack 0
// streams to its counterpart in rack 1.
func runFig20(arch *core.Architecture, aggregate sim.Rate, seed int64, sh Shared) (fig20Value, error) {
	srcs, dsts := arch.Graph.HostsInRack(0), arch.Graph.HostsInRack(1)
	pk, err := sh.Build(PacketRun{
		Arch: arch, Kind: PairsKind, Tasks: 1, Size: fig20PacketSize, Seed: seed,
		End: 200*sim.Microsecond + 3*sim.Millisecond, // warm-up, then the measured window
		PPS: float64(aggregate) / float64(len(srcs)) / (fig20PacketSize * 8),
	}, func(int, *rand.Rand) ([]topology.NodeID, [][2]topology.NodeID) {
		pairs := make([][2]topology.NodeID, len(srcs))
		for i := range pairs {
			pairs[i] = [2]topology.NodeID{srcs[i], dsts[i]}
		}
		return nil, pairs
	})
	if err != nil {
		return fig20Value{}, err
	}
	defer pk.Release()
	if err := sh.Run(pk.Net, sim.MaxTime); err != nil {
		return fig20Value{}, err
	}
	lat := pk.Harness.Latency(10)
	if lat.N() == 0 {
		return fig20Value{}, fmt.Errorf("figure20: nothing delivered")
	}
	return fig20Value{lat.Mean(), pk.Net.Dropped() > pk.Net.Delivered()/100}, nil
}

// fig20Cell is one system at one aggregate load.
type fig20Cell struct {
	gbps, system int
}

// figure20Grid sweeps aggregate S1→S2 traffic from 10 to 50 Gb/s over
// the three fig20Systems: 5 loads × 3 systems, load-major. System k
// draws from seed+k at every load, and its fabric is built once per run.
var figure20Grid = Grid[fig20Cell, fig20Value, []Figure20Row]{
	Name: "fig20",
	Cells: func(Params) []fig20Cell {
		var cells []fig20Cell
		for gbps := 10; gbps <= 50; gbps += 10 {
			for k := range fig20Systems {
				cells = append(cells, fig20Cell{gbps, k})
			}
		}
		return cells
	},
	Run: func(p Params, c fig20Cell, sh Shared) (fig20Value, error) {
		arch, err := sh.Arch(fig20Systems[c.system])
		if err != nil {
			return fig20Value{}, err
		}
		return runFig20(arch, sim.Rate(c.gbps)*sim.Gbps, p.Seed+int64(c.system), sh)
	},
	Merge: func(_ Params, cells []fig20Cell, vals []fig20Value) ([]Figure20Row, error) {
		rows := make([]Figure20Row, 0, len(cells)/3)
		for i := 0; i < len(cells); i += 3 {
			nb, ecmp, vlb := vals[i], vals[i+1], vals[i+2]
			rows = append(rows, Figure20Row{
				Aggregate:     sim.Rate(cells[i].gbps) * sim.Gbps,
				NonBlocking:   nb.Mean,
				QuartzECMP:    ecmp.Mean,
				QuartzVLB:     vlb.Mean,
				ECMPSaturated: ecmp.Saturated,
			})
		}
		return rows, nil
	},
	Render: func(rows []Figure20Row) Output {
		t := table.New("figure20", len(rows), "Aggregate", "NonBlocking", "QuartzECMP", "QuartzVLB", "ECMPSaturated")
		for _, r := range rows {
			saturated := 0
			if r.ECMPSaturated {
				saturated = 1
			}
			t.Append(table.Int(r.Aggregate), table.Float(r.NonBlocking), table.Float(r.QuartzECMP),
				table.Float(r.QuartzVLB), table.Int(saturated))
		}
		return Output{Text: RenderFigure20(rows), Tables: []table.Table{t}}
	},
}

// RenderFigure20 renders the sweep.
func RenderFigure20(rows []Figure20Row) string {
	var b strings.Builder
	b.WriteString("Figure 20: pathological pattern, latency per packet (us)\n")
	fmt.Fprintf(&b, "%14s %14s %18s %14s\n", "traffic (Gb/s)", "non-blocking", "quartz ECMP", "quartz VLB")
	for _, r := range rows {
		ecmp := fmt.Sprintf("%.2f", r.QuartzECMP)
		if r.ECMPSaturated {
			ecmp += " (saturated)"
		}
		fmt.Fprintf(&b, "%14d %14.2f %18s %14.2f\n",
			int64(r.Aggregate/sim.Gbps), r.NonBlocking, ecmp, r.QuartzVLB)
	}
	return b.String()
}
