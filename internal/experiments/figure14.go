package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// Figure14Row is one x-position of Figure 14: RPC latency under
// cross-traffic, normalized to the zero-cross-traffic baseline of each
// topology.
type Figure14Row struct {
	// CrossTraffic is the per-source cross-traffic bandwidth (the
	// x-axis, 0..200 Mb/s).
	CrossTraffic sim.Rate
	// TwoTierTree and Quartz are normalized mean RPC latencies.
	TwoTierTree float64
	Quartz      float64
	// TreeCI and QuartzCI are 95% confidence half-widths (normalized).
	TreeCI   float64
	QuartzCI float64
}

// prototype recreates the §6 testbed: four 48-port 1 Gb/s managed
// switches and six servers (two per edge switch). quartz selects the
// full-mesh wiring of Figure 12; otherwise the 2-tier tree rewiring of
// §6.1 (S1 as the aggregation switch).
func prototype(quartz bool) (*topology.Graph, []topology.NodeID) {
	g := topology.New("prototype")
	rate := 1 * sim.Gbps
	s := make([]topology.NodeID, 4)
	for i := range s {
		tier := topology.TierToR
		rack := i
		if !quartz && i == 0 {
			tier = topology.TierAgg
			rack = -1
		}
		s[i] = g.AddSwitch("S", tier, rack, i+1)
	}
	if quartz {
		g.Mesh(s, rate)
	} else {
		for i := 1; i < 4; i++ {
			g.Connect(s[i], s[0], rate, topology.DefaultProp)
		}
	}
	// Six servers: two on each of S2, S3, S4 (S1 is the aggregation
	// switch in the tree rewiring; in the mesh it carries cross-traffic
	// sources only, as in Figure 13).
	for i := 1; i < 4; i++ {
		g.AddHosts(s[i], i, 2, rate)
	}
	return g, g.Hosts()
}

// prototypeSwitch models the testbed's 1 Gb/s store-and-forward
// managed switches (Nortel 5510 / Catalyst 4948 class).
var prototypeSwitch = netsim.SwitchModel{
	Latency:     10 * sim.Microsecond,
	CutThrough:  false,
	BufferBytes: 256 << 10,
}

// wiringName labels a prototype wiring in the extension tables.
func wiringName(quartz bool) string {
	if quartz {
		return "quartz mesh"
	}
	return "two-tier tree"
}

// The §6 prototype's two wirings as Shared.Arch knows them (ownFabric):
// its switches, routed by ECMP, which every server pair of either wiring
// reaches over one shortest path.
const (
	prototypeTree = "prototype two-tier tree"
	prototypeMesh = "prototype quartz mesh"
)

// testbedHost is the prototype's servers: stock Ubuntu, standard NIC
// latency.
var testbedHost = netsim.HostModel{NICLatency: 10 * sim.Microsecond, ForwardLatency: 15 * sim.Microsecond, BufferBytes: 1 << 20}

// testbedLimit bounds a testbed run in virtual time: cross-traffic
// re-arms forever, so a run whose foreground work is not done by then
// has starved.
const testbedLimit = 120 * sim.Second

// crossTraffic is the bursty cross-traffic of Figure 13: three sources
// aimed at the second server on S3 — the second servers of S2 and S4,
// and the first of S4 — each at rate (0: none), in queueing class
// priority, their generators seeded from seed; rpcPriority is the RPC's
// own class. In the tree all three share the aggregation uplink to S3
// with the RPC; in the mesh only the S2 source shares the direct S2-S3
// channel.
type crossTraffic struct {
	rate                  sim.Rate
	priority, rpcPriority uint8
	seed                  int64
}

// runRPC measures the RPC of Figure 13 — the first server on S2 calling
// the first on S3 — on one wiring of the testbed (servers h2a h2b on S2,
// h3a h3b on S3, h4a h4b on S4) under cross: the cross-traffic starts,
// then the RPC, and the engine runs in 10 ms slices until rpcs round
// trips are done. It returns their mean and 95% CI half-width in µs;
// name labels a starved run's error.
func runRPC(name string, quartz bool, rpcs int, cross crossTraffic, sh Shared) (mean, ci float64, err error) {
	wiring := prototypeTree
	if quartz {
		wiring = prototypeMesh
	}
	arch, err := sh.Arch(Fabric{Name: wiring})
	if err != nil {
		return 0, 0, err
	}
	pk, err := sh.Build(PacketRun{Arch: arch, Host: testbedHost}, nil)
	if err != nil {
		return 0, 0, err
	}
	defer pk.Release()
	hosts := arch.Graph.Hosts()
	if cross.rate > 0 {
		rng := rand.New(rand.NewSource(cross.seed))
		for i, src := range []topology.NodeID{hosts[1], hosts[4], hosts[5]} {
			b := &traffic.Bursty{
				Net: pk.Net, Src: src, Dst: hosts[3],
				Flow: routing.FlowID(1000 + i), Bandwidth: cross.rate,
				Tag: 100 + i, Priority: cross.priority,
				Rand: rand.New(rand.NewSource(rng.Int63())),
			}
			if err := b.Start(sim.Time(1) << 62); err != nil {
				return 0, 0, err
			}
		}
	}
	rpc := &traffic.RPC{
		Net: pk.Net, Harness: pk.Harness,
		Client: hosts[0], Server: hosts[2],
		Count: rpcs, ReqTag: 1, ReplyTag: 2, Priority: cross.rpcPriority,
	}
	if err := rpc.Start(); err != nil {
		return 0, 0, err
	}
	eng := pk.Net.Engine()
	for rpc.RTT.N() < int64(rpcs) && eng.Pending() > 0 {
		if err := sh.Run(pk.Net, eng.Now()+10*sim.Millisecond); err != nil {
			return 0, 0, err
		}
		if eng.Now() > testbedLimit {
			return 0, 0, fmt.Errorf("%s: RPCs starved (completed %d/%d)", name, rpc.RTT.N(), rpcs)
		}
	}
	return rpc.RTT.Mean(), rpc.RTT.CI95(), nil
}

// figure14Cell is one RPC run: a prototype wiring at one cross-traffic
// level.
type figure14Cell struct {
	mbps   int
	quartz bool
}

// figure14Grid is 9 cross-traffic levels (0..200 Mb/s in 25 Mb/s
// steps) × 2 wirings, level-major with the tree first. Both wirings of
// a level share the seed seed+mbps.
var figure14Grid = Grid[figure14Cell, meanCI, []Figure14Row]{
	Name: "fig14",
	Cells: func(Params) []figure14Cell {
		var cells []figure14Cell
		for mbps := 0; mbps <= 200; mbps += 25 {
			cells = append(cells, figure14Cell{mbps, false}, figure14Cell{mbps, true})
		}
		return cells
	},
	Run: func(p Params, c figure14Cell, sh Shared) (meanCI, error) {
		m, ci, err := runRPC("fig14", c.quartz, p.RPCs, crossTraffic{rate: sim.Rate(c.mbps) * sim.Mbps, seed: p.Seed + int64(c.mbps)}, sh)
		return meanCI{m, ci}, err
	},
	// Each wiring is normalized to its own zero-cross-traffic cell, so
	// level 0 reads exactly 1.00.
	Merge: func(_ Params, cells []figure14Cell, vals []meanCI) ([]Figure14Row, error) {
		treeBase, quartzBase := vals[0].Mean, vals[1].Mean
		rows := make([]Figure14Row, 0, len(cells)/2)
		for i := 0; i < len(cells); i += 2 {
			tree, quartz := vals[i], vals[i+1]
			rows = append(rows, Figure14Row{
				CrossTraffic: sim.Rate(cells[i].mbps) * sim.Mbps,
				TwoTierTree:  tree.Mean / treeBase,
				Quartz:       quartz.Mean / quartzBase,
				TreeCI:       tree.CI / treeBase,
				QuartzCI:     quartz.CI / quartzBase,
			})
		}
		return rows, nil
	},
	Render: func(rows []Figure14Row) Output {
		t := table.New("figure14", len(rows), "CrossTraffic", "TwoTierTree", "Quartz", "TreeCI", "QuartzCI")
		for _, r := range rows {
			t.Append(table.Int(r.CrossTraffic), table.Float(r.TwoTierTree), table.Float(r.Quartz),
				table.Float(r.TreeCI), table.Float(r.QuartzCI))
		}
		return Output{Text: RenderFigure14(rows), Tables: []table.Table{t}}
	},
}

// RenderFigure14 renders the sweep.
func RenderFigure14(rows []Figure14Row) string {
	var b strings.Builder
	b.WriteString("Figure 14: impact of cross-traffic on normalized RPC latency\n")
	fmt.Fprintf(&b, "%12s %18s %18s\n", "cross (Mb/s)", "two-tier tree", "quartz")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %12.2f ±%4.2f %12.2f ±%4.2f\n",
			int64(r.CrossTraffic/sim.Mbps), r.TwoTierTree, r.TreeCI, r.Quartz, r.QuartzCI)
	}
	return b.String()
}
