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

// testbed is one run on the §6 prototype: its network, the harness that
// sees every delivery, and the six servers h2a h2b (S2), h3a h3b (S3),
// h4a h4b (S4).
type testbed struct {
	net   *netsim.Network
	h     *traffic.Harness
	hosts []topology.NodeID
}

// newTestbed builds the prototype on one wiring over its switches. The
// servers run stock Ubuntu: standard NIC latency.
func newTestbed(quartz bool) (testbed, error) {
	g, hosts := prototype(quartz)
	h := traffic.NewHarness()
	net, err := netsim.New(netsim.Config{
		Graph:       g,
		Router:      routing.NewECMP(g),
		SwitchModel: uniform(prototypeSwitch),
		Host:        netsim.HostModel{NICLatency: 10 * sim.Microsecond, ForwardLatency: 15 * sim.Microsecond, BufferBytes: 1 << 20},
		OnDeliver:   h.Deliver,
	})
	return testbed{net, h, hosts}, err
}

// testbedLimit bounds a testbed run in virtual time: cross-traffic
// re-arms forever, so a run whose foreground work is not done by then
// has starved.
const testbedLimit = 120 * sim.Second

// runRPC measures the RPC of Figure 13 — the first server on S2 calling
// the first on S3 — on one wiring of the testbed: cross starts the
// experiment's cross-traffic (and may set the RPC's queueing classes),
// then the RPC starts and the engine runs in 10 ms slices until rpcs
// round trips are done. It returns their mean and 95% CI half-width in
// µs; name labels a starved run's error.
func runRPC(name string, quartz bool, rpcs int, sh Shared, cross func(tb testbed, rpc *traffic.RPC) error) (mean, ci float64, err error) {
	tb, err := newTestbed(quartz)
	if err != nil {
		return 0, 0, err
	}
	rpc := &traffic.RPC{
		Net: tb.net, Harness: tb.h,
		Client: tb.hosts[0], Server: tb.hosts[2],
		Count: rpcs, ReqTag: 1, ReplyTag: 2,
	}
	if err := cross(tb, rpc); err != nil {
		return 0, 0, err
	}
	if err := rpc.Start(); err != nil {
		return 0, 0, err
	}
	eng := tb.net.Engine()
	for rpc.RTT.N() < int64(rpcs) && eng.Pending() > 0 {
		if err := sh.run(tb.net, eng.Now()+10*sim.Millisecond); err != nil {
			return 0, 0, err
		}
		if eng.Now() > testbedLimit {
			return 0, 0, fmt.Errorf("%s: RPCs starved (completed %d/%d)", name, rpc.RTT.N(), rpcs)
		}
	}
	return rpc.RTT.Mean(), rpc.RTT.CI95(), nil
}

// bursts starts the bursty cross-traffic of Figure 13: three sources
// aimed at the second server on S3 — the second servers of S2 and S4,
// and the first of S4 — each at rate, in queueing class priority, their
// generators seeded from seed. In the tree all three share the
// aggregation uplink to S3 with the RPC; in the mesh only the S2 source
// shares the direct S2-S3 channel.
func (tb testbed) bursts(rate sim.Rate, priority uint8, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i, src := range []topology.NodeID{tb.hosts[1], tb.hosts[4], tb.hosts[5]} {
		b := &traffic.Bursty{
			Net: tb.net, Src: src, Dst: tb.hosts[3],
			Flow: routing.FlowID(1000 + i), Bandwidth: rate,
			Tag: 100 + i, Priority: priority,
			Rand: rand.New(rand.NewSource(rng.Int63())),
		}
		if err := b.Start(sim.Time(1) << 62); err != nil {
			return err
		}
	}
	return nil
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
		m, ci, err := runRPC("fig14", c.quartz, p.RPCs, sh, func(tb testbed, _ *traffic.RPC) error {
			if c.mbps == 0 {
				return nil
			}
			return tb.bursts(sim.Rate(c.mbps)*sim.Mbps, 0, p.Seed+int64(c.mbps))
		})
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
