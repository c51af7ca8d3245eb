package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/schedule"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// SchedulerRow reports one topology's latency with and without a
// Hedera/DeTail-style congestion-aware flow scheduler.
type SchedulerRow struct {
	Topology string
	// Unscheduled and Scheduled are mean packet latencies in µs.
	Unscheduled, Scheduled float64
	// Moves is how many flow re-pins the scheduler performed.
	Moves int
	// Alternatives is the topology's path diversity between the hot
	// endpoints.
	Alternatives int
}

// schedTopologies are the two fabrics of the scheduler comparison: a
// single-root 2-tier tree (diversity 1 — the scheduler has nowhere to
// move flows) and a Quartz mesh (diversity M-1 — the scheduler spreads
// the overload over two-hop paths).
var schedTopologies = []struct {
	name  string
	build func() (*topology.Graph, error)
}{
	{"two-tier tree (diversity 1)", func() (*topology.Graph, error) {
		return topology.NewTwoTierTree(topology.TreeConfig{
			ToRs: 4, Roots: 1, HostsPerToR: 2,
			UpLink: topology.LinkSpec{Rate: 1 * sim.Gbps},
		})
	}},
	{"quartz mesh (diversity 3)", func() (*topology.Graph, error) {
		return topology.NewFullMesh(topology.MeshConfig{
			Switches: 4, HostsPerSwitch: 2,
			MeshLink: topology.LinkSpec{Rate: 1 * sim.Gbps},
		})
	}},
}

// schedCell is one run: a topology with or without the scheduler.
type schedCell struct {
	topology  int
	scheduled bool
}

// schedValue is what one run measured: the mean packet latency (µs),
// the scheduler's re-pins, and the path diversity between the hot racks.
type schedValue struct {
	Latency             float64
	Moves, Alternatives int
}

// schedulerGrid makes §2.1.4's closing argument quantitative:
// congestion-aware flow scheduling is "limited by the amount of path
// diversity in the underlying network topology". The same overloaded
// rack-pair workload runs on each of schedTopologies, unscheduled and
// then scheduled.
var schedulerGrid = Grid[schedCell, schedValue, []SchedulerRow]{
	Name: "sched",
	Cells: func(Params) []schedCell {
		var cells []schedCell
		for i := range schedTopologies {
			cells = append(cells, schedCell{i, false}, schedCell{i, true})
		}
		return cells
	},
	Run: func(p Params, c schedCell, sh Shared) (schedValue, error) {
		g, err := schedTopologies[c.topology].build()
		if err != nil {
			return schedValue{}, err
		}
		return runSchedulerCase(g, c.scheduled, p.Seed, sh)
	},
	Merge: func(_ Params, _ []schedCell, vals []schedValue) ([]SchedulerRow, error) {
		rows := make([]SchedulerRow, len(schedTopologies))
		for i, tc := range schedTopologies {
			unsched, sched := vals[2*i], vals[2*i+1]
			rows[i] = SchedulerRow{
				Topology:     tc.name,
				Unscheduled:  unsched.Latency,
				Scheduled:    sched.Latency,
				Moves:        sched.Moves,
				Alternatives: unsched.Alternatives,
			}
		}
		return rows, nil
	},
	Render: func(rows []SchedulerRow) Output { return Output{Text: RenderScheduler(rows)} },
}

// runSchedulerCase overloads the rack-0 to rack-1 pair with two flows
// whose aggregate exceeds the 1 Gb/s inter-switch capacity and measures
// mean latency.
func runSchedulerCase(g *topology.Graph, withScheduler bool, seed int64, sh Shared) (schedValue, error) {
	router := schedule.NewRouter(g, routing.NewECMP(g))
	h := traffic.NewHarness()
	net, err := netsim.New(netsim.Config{
		Graph:     g,
		Router:    router,
		OnDeliver: h.Deliver,
	})
	if err != nil {
		return schedValue{}, err
	}
	srcs := g.HostsInRack(0)
	dsts := g.HostsInRack(1)
	rng := rand.New(rand.NewSource(seed))
	const end = 10 * sim.Millisecond
	var flows []schedule.FlowInfo
	for i := range srcs {
		st := &traffic.Stream{
			Net: net, Src: srcs[i], Dst: dsts[i],
			Flow: routing.FlowID(i + 1), RatePPS: 280e3, Size: 400, Tag: 1,
			Rand: rand.New(rand.NewSource(rng.Int63())),
		}
		if err := st.Start(end); err != nil {
			return schedValue{}, err
		}
		flows = append(flows, schedule.FlowInfo{Flow: routing.FlowID(i + 1), Src: srcs[i], Dst: dsts[i]})
	}
	var s *schedule.Scheduler
	if withScheduler {
		s = schedule.New(net, router, flows)
		s.Start(end)
	}
	net.Engine().RunUntil(end + 2*sim.Millisecond)
	sh.ran(net)
	v := schedValue{Latency: h.Latency(1).Mean(), Alternatives: g.EdgeDisjointPaths(torOf(g, 0), torOf(g, 1))}
	if s != nil {
		v.Moves = s.Moves()
	}
	return v, nil
}

// torOf returns the switch of the given rack.
func torOf(g *topology.Graph, rack int) topology.NodeID {
	for _, s := range g.Switches() {
		if g.Node(s).Rack == rack {
			return s
		}
	}
	return -1
}

// RenderScheduler renders the comparison.
func RenderScheduler(rows []SchedulerRow) string {
	var b strings.Builder
	b.WriteString("Flow scheduling vs path diversity (§2.1.4): overloaded rack pair\n")
	fmt.Fprintf(&b, "%-28s %14s %14s %8s %14s\n",
		"topology", "no sched (us)", "sched (us)", "moves", "alternatives")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %14.1f %14.1f %8d %14d\n",
			r.Topology, r.Unscheduled, r.Scheduled, r.Moves, r.Alternatives)
	}
	return b.String()
}
