package routing_test

import (
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// TestECMPTablesAreShortestPaths checks ECMP's next-hop lists and VLB's
// waypoint distances against a naive shortest-path oracle and the
// per-host reference tables (routing.CheckTables) on every topology
// builder and every §7 architecture, intact and around one dead
// switch-to-switch link, one dead host uplink and one dead switch. The
// experiments' other fabrics, Figure 20's, are a one-switch star and a
// 4 × 4 mesh, the first two graphs here.
func TestECMPTablesAreShortestPaths(t *testing.T) {
	must := func(g *topology.Graph, err error) *topology.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	arch := func(a *core.Architecture, err error) *topology.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a.Graph
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	// A mesh whose switch pairs each have three parallel trunks.
	trunked := topology.New("mesh(M=4,n=2,trunks=3)")
	sw := make([]topology.NodeID, 4)
	for i := range sw {
		sw[i] = trunked.AddSwitch("tor", topology.TierToR, i, i)
		trunked.AddHosts(sw[i], i, 2, 10*sim.Gbps)
	}
	for range 3 {
		trunked.Mesh(sw, 10*sim.Gbps)
	}
	var p core.ArchParams
	for _, g := range []*topology.Graph{
		must(topology.NewFullMesh(topology.MeshConfig{Switches: 1, HostsPerSwitch: 8})),
		must(topology.NewFullMesh(topology.MeshConfig{Switches: 4, HostsPerSwitch: 4})),
		trunked,
		must(topology.NewTwoTierTree(topology.TreeConfig{ToRs: 4, Roots: 2, HostsPerToR: 3, UplinksPerRoot: 2})),
		must(topology.NewThreeTierTree(topology.ThreeTierConfig{Pods: 2, ToRsPerPod: 2, HostsPerToR: 2})),
		must(topology.NewBCube(3, 1)),
		must(topology.NewBCube(2, 2)),
		must(topology.NewJellyfish(topology.JellyfishConfig{Switches: 8, HostsPerSwitch: 2, NetDegree: 3, Rand: rng()})),
		arch(core.TwoTierTreeArch(p)),
		arch(core.QuartzRingArch(p)),
		arch(core.ThreeTierTree(p)),
		arch(core.Jellyfish(p, rng())),
		arch(core.QuartzInCore(p)),
		arch(core.QuartzInEdge(p)),
		arch(core.QuartzInEdgeAndCore(p)),
		arch(core.QuartzInJellyfish(p, rng())),
	} {
		routing.CheckTables(t, g.Name, g, routing.DeadSets(g)...)
	}
}
