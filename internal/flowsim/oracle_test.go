package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// bottleneckViolations checks rates against the bottleneck
// characterisation of max-min fairness for single-path flows
// (Bertsekas and Gallager, Data Networks, §6.5). The allocation must be
// feasible: no directed link carries more than its capacity, and no flow
// more than its demand. And every flow must either meet its demand or
// cross a saturated link on which no flow gets more than it does. It
// needs no second implementation, only the flows' paths and g's link
// rates.
func bottleneckViolations(g *topology.Graph, flows []Flow, rates []float64) []string {
	type hop [2]topology.NodeID
	load := map[hop]float64{}
	crossing := map[hop][]int{}
	for i, f := range flows {
		p := f.Subflows[0].Path
		for h := 0; h+1 < len(p); h++ {
			k := hop{p[h], p[h+1]}
			load[k] += rates[i]
			crossing[k] = append(crossing[k], i)
		}
	}
	capacity := func(k hop) float64 {
		l, _ := g.FindLink(k[0], k[1])
		return float64(l.Rate)
	}
	var bad []string
	for k, x := range load {
		if c := capacity(k); x > c*(1+1e-9) {
			bad = append(bad, fmt.Sprintf("link %d->%d carries %v of %v", k[0], k[1], x, c))
		}
	}
	for i, f := range flows {
		if d := float64(f.Demand); d > 0 && rates[i] > d*(1+1e-9) {
			bad = append(bad, fmt.Sprintf("flow %d gets %v of a %v demand", i, rates[i], d))
		}
		if f.Demand > 0 && rates[i] >= float64(f.Demand)*(1-1e-9) {
			continue
		}
		p := f.Subflows[0].Path
		bottleneck := false
		for h := 0; h+1 < len(p) && !bottleneck; h++ {
			k := hop{p[h], p[h+1]}
			if load[k] < capacity(k)*(1-2e-6) {
				continue
			}
			bottleneck = true
			for _, j := range crossing[k] {
				bottleneck = bottleneck && rates[j] <= rates[i]*(1+1e-9)
			}
		}
		if !bottleneck {
			bad = append(bad, fmt.Sprintf("flow %d (%v) has no bottleneck link", i, rates[i]))
		}
	}
	return bad
}

func TestSinglePathAllocationsAreMaxMinFair(t *testing.T) {
	// Figure 10's three tree fabrics (9 racks of 8 hosts, uplinks at full,
	// half and a quarter of the rack's host bandwidth) under its three
	// patterns, and TestAllocateMatchesReferenceOnTrees' tree under
	// permutations, each uncapped and with random demand caps.
	type input struct {
		g     *topology.Graph
		pairs [][2]topology.NodeID
	}
	inputs := map[string]input{}
	for _, frac := range []float64{1, 0.5, 0.25} {
		g := tree(9, 8, sim.Rate(frac*8*10*float64(sim.Gbps)))
		rng := rand.New(rand.NewSource(2014))
		inputs[fmt.Sprintf("%v bisection permutation", frac)] = input{g, traffic.RandomPermutation(g.Hosts(), rng)}
		inputs[fmt.Sprintf("%v bisection incast", frac)] = input{g, traffic.Incast(g.Hosts(), 10, rng)}
		inputs[fmt.Sprintf("%v bisection rack shuffle", frac)] = input{g, traffic.RackShuffle(g, 3, rng)}
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := tree(6, 5, 25*sim.Gbps)
		inputs[fmt.Sprintf("reference tree seed=%d", seed)] = input{g, permutation(g.Hosts(), rand.New(rand.NewSource(seed)))}
	}
	for name, in := range inputs {
		rng := rand.New(rand.NewSource(7))
		for _, capped := range []bool{false, true} {
			flows, err := ShortestPathFlows(in.g, in.pairs, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range flows {
				if capped && rng.Intn(2) == 0 {
					flows[i].Demand = sim.Rate(1+rng.Intn(19)) * sim.Gbps / 2
				}
			}
			a, err := Allocate(in.g, flows)
			if err != nil {
				t.Fatal(err)
			}
			if bad := bottleneckViolations(in.g, flows, a.Rates); len(bad) > 0 {
				t.Errorf("%s capped=%v: %d violations, first %s", name, capped, len(bad), bad[0])
			}
		}
	}
}

func TestVLBRatesScaleWithLinkRates(t *testing.T) {
	// Homogeneity: multiplying every link rate by 2^j multiplies every
	// max-min fair rate by exactly 2^j, since scaling by a power of two is
	// exact in floating point and so is every level and remainder the
	// fill computes from them. The relation is not exact for every j: the
	// saturation test's 1e-9 b/s and the demand test's 1e-6 b/s are
	// absolute slack that does not scale, so far enough out a scaled run
	// crosses one where the unscaled one does not. j stays small.
	fill := func(g *topology.Graph, pairs [][2]topology.NodeID) [][]float64 {
		c := compileVLB(t, g, pairs)
		var rates [][]float64
		for _, weights := range vlbWeights(c) {
			a, err := c.Fill(weights)
			if err != nil {
				t.Fatal(err)
			}
			rates = append(rates, a.Rates)
		}
		return rates
	}
	for name, in := range vlbCases(t) {
		base := fill(in.g, in.pairs)
		for _, j := range []int{-3, 1, 4} {
			rate := sim.Rate(math.Ldexp(float64(10*sim.Gbps), j))
			g, err := topology.NewFullMesh(topology.MeshConfig{Switches: in.switches, HostsPerSwitch: in.hosts,
				HostRate: rate, MeshRate: rate})
			if err != nil {
				t.Fatal(err)
			}
			for k, rates := range fill(g, in.pairs) {
				for i, r := range rates {
					if want := math.Ldexp(base[k][i], j); r != want {
						t.Fatalf("%s j=%d split %d/8 flow %d: rate %v, want %v", name, j, k, i, r, want)
					}
				}
			}
		}
	}
}
