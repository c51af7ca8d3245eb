package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"github.com/quartz-dcn/quartz/internal/flowsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// Figure10Networks are the compared fabrics, in the figure's legend
// order.
var Figure10Networks = []string{
	"full bisection", "quartz", "1/2 bisection", "1/4 bisection",
}

// Figure10Row is one traffic pattern's normalized throughput across the
// four fabrics (normalized to the full-bisection result).
type Figure10Row struct {
	Pattern    string
	Throughput map[string]float64
}

// figure10Scale sizes the §5.1 experiment: 9 racks of 8 servers with
// 10 Gb/s NICs. Like the paper's 32:32 configuration, the mesh is
// balanced: each switch has as many 10 Gb/s mesh links (M-1 = 8) as
// servers.
const (
	fig10Switches = 9
	fig10Hosts    = 8
)

// buildBisectionFabric models a tree fabric with the given bisection
// fraction: each ToR's uplink trunk carries fraction * hosts * NIC.
func buildBisectionFabric(fraction float64) *topology.Graph {
	up := sim.Rate(fraction * fig10Hosts * 10 * float64(sim.Gbps))
	g := topology.New(fmt.Sprintf("fabric(%.2f)", fraction))
	core := g.AddSwitch("core", topology.TierCore, -1)
	for r := 0; r < fig10Switches; r++ {
		tor := g.AddSwitch("tor", topology.TierToR, r, r)
		g.Connect(tor, core, up, topology.DefaultProp)
		g.AddHosts(tor, r, fig10Hosts, 10*sim.Gbps)
	}
	return g
}

// fig10Pairs builds the three §5.1 patterns' host pairs.
func fig10Pairs(g *topology.Graph, rng *rand.Rand) map[string][][2]topology.NodeID {
	return map[string][][2]topology.NodeID{
		"Random Permutation": traffic.RandomPermutation(g.Hosts(), rng),
		"Incast":             traffic.Incast(g.Hosts(), 10, rng),
		"Rack Level Shuffle": traffic.RackShuffle(g, 3, rng),
	}
}

// throughputOn allocates the pattern's flows on a fabric over single
// shortest paths.
func throughputOn(g *topology.Graph, pairs [][2]topology.NodeID) (float64, error) {
	flows, err := flowsim.ShortestPathFlows(g, pairs, 0)
	if err != nil {
		return 0, err
	}
	alloc, err := flowsim.Allocate(g, flows)
	if err != nil {
		return 0, err
	}
	return alloc.Total(), nil
}

// throughputOnQuartz allocates the pattern on the mesh with adaptive
// VLB: §3.4 notes the indirect fraction "can be adaptive depending on
// the traffic characteristics", so the best split is selected per
// pattern. A pair's paths do not depend on the split, so they are
// compiled once and only re-weighted per fraction.
func throughputOnQuartz(g *topology.Graph, pairs [][2]topology.NodeID) (float64, error) {
	paths, err := flowsim.CompileVLB(g, pairs)
	if err != nil {
		return 0, err
	}
	var weights []float64
	best := 0.0
	for frac := 0.0; frac <= 1.0; frac += 0.125 {
		weights = paths.VLBWeights(1-frac, weights[:0])
		alloc, err := paths.Fill(weights)
		if err != nil {
			return 0, err
		}
		if t := alloc.Total(); t > best {
			best = t
		}
	}
	return best, nil
}

// Figure10 computes normalized throughput for the three traffic
// patterns on the four fabrics (§5.1). Pair patterns are sampled
// identically across fabrics (same seed), and throughput is normalized
// to the full-bisection fabric. Cancelling ctx aborts between
// pattern/fabric cells.
func Figure10(ctx context.Context, seed int64) ([]Figure10Row, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mesh, err := topology.NewFullMesh(topology.MeshConfig{
		Switches: fig10Switches, HostsPerSwitch: fig10Hosts,
	})
	if err != nil {
		return nil, err
	}
	// The fabrics in Figure10Networks order. Each draws the same pairs on
	// its own host IDs (same seed; all fabrics create hosts in the same
	// rack-major order), once for all three patterns.
	fabrics := []*topology.Graph{
		buildBisectionFabric(1.0), mesh, buildBisectionFabric(0.5), buildBisectionFabric(0.25),
	}
	pairs := make([]map[string][][2]topology.NodeID, len(fabrics))
	for i, g := range fabrics {
		pairs[i] = fig10Pairs(g, rand.New(rand.NewSource(seed)))
	}

	patterns := []string{"Random Permutation", "Incast", "Rack Level Shuffle"}
	var rows []Figure10Row
	for _, pattern := range patterns {
		// Throughput is normalized so the full-bisection fabric scores
		// 1 (the figure's definition: "equals 1 if every server can
		// send traffic at its full rate"; for fan-in patterns the
		// receiver NIC is the binding ideal, which the full-bisection
		// fabric achieves).
		row := Figure10Row{Pattern: pattern, Throughput: map[string]float64{}}
		base := 0.0
		for i, netName := range Figure10Networks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			g := fabrics[i]
			var tp float64
			var err error
			if g == mesh {
				tp, err = throughputOnQuartz(g, pairs[i][pattern])
			} else {
				tp, err = throughputOn(g, pairs[i][pattern])
			}
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", pattern, netName, err)
			}
			if i == 0 {
				base = tp
			}
			row.Throughput[netName] = tp / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure10 renders the bar chart as a table.
func RenderFigure10(rows []Figure10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10: normalized throughput (vs full bisection bandwidth)\n")
	fmt.Fprintf(&b, "%-20s", "pattern")
	for _, n := range Figure10Networks {
		fmt.Fprintf(&b, "%16s", n)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s", r.Pattern)
		for _, n := range Figure10Networks {
			fmt.Fprintf(&b, "%16.2f", r.Throughput[n])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
