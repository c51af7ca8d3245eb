// Package analysis computes the topology comparison of the paper's §5
// (Table 9): for five representative ~1000-port network structures
// built from 64-port switches, it reports the zero-load latency, the
// number of switches, the wiring complexity (cross-rack links), and the
// path diversity (maximum edge-disjoint paths, the metric of Teixeira
// et al. [39]).
package analysis

import (
	"fmt"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// Row is one line of Table 9.
type Row struct {
	Network string
	// SwitchHops and ServerHops are the worst-case shortest-path hop
	// counts between hosts in different racks.
	SwitchHops int
	ServerHops int
	// Latency is the zero-load latency: 0.5 us per switch hop
	// (state-of-the-art cut-through, Table 2) plus 15 us per server
	// forwarding hop.
	Latency sim.Time
	// Switches is the switch count.
	Switches int
	// Wiring is the number of cross-rack links.
	Wiring int
	// Diversity is the path diversity between two hosts in different
	// racks (edge-disjoint switch-level paths).
	Diversity int
	// WDMWiring is the wiring complexity when the topology is
	// implemented as a Quartz WDM ring (mesh only; 0 elsewhere).
	WDMWiring int
}

func (r Row) String() string {
	return fmt.Sprintf("%-12s %6.1fus %2d switch hops %d server hops %3d switches wiring %4d diversity %d",
		r.Network, r.Latency.Micros(), r.SwitchHops, r.ServerHops, r.Switches, r.Wiring, r.Diversity)
}

// Per-hop latencies of Table 9's latency column.
const (
	switchHopLatency = 500 * sim.Nanosecond
	serverHopLatency = 15 * sim.Microsecond
)

// analyze computes a row from a built topology. sample pairs of hosts
// in different racks are examined for worst-case hops and diversity.
func analyze(name string, g *topology.Graph) Row {
	row := Row{Network: name, Switches: len(g.Switches()), Wiring: g.CrossRackLinks()}

	// Worst-case shortest path between hosts in different racks, and
	// the switch/server hop composition of such a path.
	hosts := g.Hosts()
	// Use the first host and find the farthest other-rack host; the
	// topologies here are vertex-transitive enough that this is the
	// worst case.
	src := hosts[0]
	dist := g.BFSDist(src, nil)
	far := src
	for _, h := range hosts {
		if g.Node(h).Rack != g.Node(src).Rack && dist[h] > dist[far] {
			far = h
		}
	}
	path := g.ShortestPath(src, far, nil)
	for _, n := range path[1 : len(path)-1] {
		if g.Node(n).Kind == topology.Switch {
			row.SwitchHops++
		} else {
			row.ServerHops++
		}
	}
	row.Latency = sim.Time(row.SwitchHops)*switchHopLatency + sim.Time(row.ServerHops)*serverHopLatency
	// Path diversity: between the endpoints' ToR switches for
	// single-homed hosts (the network-level metric of [39]); between
	// the hosts themselves for multi-homed server-centric designs
	// (BCube), where the server NICs are the constraint.
	if g.Degree(src) > 1 {
		row.Diversity = g.EdgeDisjointPaths(src, far)
	} else {
		row.Diversity = g.EdgeDisjointPaths(g.ToRof(src), g.ToRof(far))
	}
	return row
}

// Table9Config sizes the comparison; the zero value reproduces the
// paper's ~1k-port setting with 64-port switches.
type Table9Config struct {
	// Rand seeds the Jellyfish topology; required.
	Rand *rand.Rand
}

// Table9 builds the five topologies of §5 at ~1000 usable ports and
// analyzes them. The returned rows are ordered as in the paper:
// 2-tier tree, Fat-Tree, BCube, Jellyfish, Mesh.
func Table9(cfg Table9Config) ([]Row, error) {
	if cfg.Rand == nil {
		return nil, fmt.Errorf("analysis: Table9 requires a Rand")
	}
	var rows []Row

	// 2-tier tree: 16 ToRs of 60 servers + 1 uplink each, to one large
	// root switch: 17 switches, 16 cross-rack links, diversity 1.
	twoTier, err := topology.NewTwoTierTree(topology.TreeConfig{
		ToRs: 16, Roots: 1, HostsPerToR: 60,
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, analyze("2-Tier Tree", twoTier))

	// Fat-Tree, as the paper sizes it: a folded-Clos leaf-spine of
	// 64-port switches with full bisection — 32 leaves x 32 servers,
	// each leaf's 32 uplinks spread over 16 spines (two links each):
	// 48 switches, 1024 cross-rack links, diversity 32.
	fatTree, err := topology.NewTwoTierTree(topology.TreeConfig{
		ToRs: 32, Roots: 16, HostsPerToR: 32, UplinksPerRoot: 2,
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, analyze("Fat-Tree", fatTree))

	// BCube(32,1): 1024 dual-homed servers over two levels of 32-port
	// switches; forwarding crosses one intermediate server (16 us).
	bcube, err := topology.NewBCube(32, 1)
	if err != nil {
		return nil, err
	}
	rows = append(rows, analyze("BCube", bcube))

	// Jellyfish: 24 switches x 40 servers, 20 network ports each
	// (240 random cross-rack links).
	jf, err := topology.NewJellyfish(topology.JellyfishConfig{
		Switches: 24, HostsPerSwitch: 40, NetDegree: 20, Rand: cfg.Rand,
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, analyze("Jellyfish", jf))

	// Mesh: the Quartz configuration, 33 switches x 32 servers = 1056
	// ports; 528 direct links, or 33 ring cables with WDM.
	mesh, err := topology.NewFullMesh(topology.MeshConfig{
		Switches: 33, HostsPerSwitch: 32,
	})
	if err != nil {
		return nil, err
	}
	meshRow := analyze("Mesh", mesh)
	meshRow.WDMWiring = 33 // one ring: two fiber cables per switch
	rows = append(rows, meshRow)

	return rows, nil
}
