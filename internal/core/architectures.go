package core

import (
	"fmt"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// Architecture bundles a simulated network design: the topology, the
// routing strategy, and the switch model of each node — everything the
// packet simulator needs. The eight compared designs are built by the
// functions below, at the paper's simulated scale (4-switch Quartz
// rings, 16-switch Jellyfish); Designs names them.
type Architecture struct {
	Name   string
	Graph  *topology.Graph
	Router routing.Router
	// Model selects the switch model per node (Table 16: ULL for ToR,
	// aggregation and Quartz switches; CCS for core switches).
	Model func(topology.Node) netsim.SwitchModel
	// VLB is non-nil when the architecture routes with Valiant load
	// balancing (used by the Figure 20 comparison).
	VLB *routing.VLB
	// Ring is the planned Quartz ring behind the architecture, when it
	// is a single ring (QuartzRingArch): it carries the wavelength plan
	// that fiber-cut fault injection resolves against.
	Ring *Ring
}

// ArchParams sizes the simulated architectures. The zero value selects
// the paper's configuration.
type ArchParams struct {
	// Pods is the number of pods / edge rings (default 4).
	Pods int
	// ToRsPerPod is ToR switches per pod; Quartz replacements use one
	// 4-switch ring per pod (default 4).
	ToRsPerPod int
	// HostsPerToR is servers per rack (default 4).
	HostsPerToR int
}

// Hosts is the number of servers every design built at p has: pods ×
// ToRs per pod × hosts per ToR, after the defaults.
func (p ArchParams) Hosts() int {
	p.setDefaults()
	return p.Pods * p.ToRsPerPod * p.HostsPerToR
}

func (p *ArchParams) setDefaults() {
	if p.Pods == 0 {
		p.Pods = 4
	}
	if p.ToRsPerPod == 0 {
		p.ToRsPerPod = 4
	}
	if p.HostsPerToR == 0 {
		p.HostsPerToR = 4
	}
}

// NewDesign returns the architecture name over g, routed with
// per-packet ECMP as every compared design is, with the given switch
// models (nil: netsim's default, the ULL switch, everywhere).
func NewDesign(name string, g *topology.Graph, model func(topology.Node) netsim.SwitchModel) *Architecture {
	return &Architecture{Name: name, Graph: g, Router: routing.NewECMPPerPacket(g), Model: model}
}

// modelByTier returns ULL for edge/aggregation switches and CCS for
// core switches — the paper's assignment (§7).
func modelByTier(n topology.Node) netsim.SwitchModel {
	if n.Tier == topology.TierCore {
		return netsim.CiscoNexus7000
	}
	return netsim.Arista7150
}

// allULL returns the cut-through model for every switch (§7: "We use
// ULL exclusively in Quartz").
func allULL(topology.Node) netsim.SwitchModel { return netsim.Arista7150 }

// ThreeTierTree builds §7's baseline (Figure 15(a)): ToRs connected to
// two aggregation switches over 40 Gb/s, aggregation to two CCS cores
// over 40 Gb/s, hosts at 10 Gb/s.
func ThreeTierTree(p ArchParams) (*Architecture, error) {
	p.setDefaults()
	g, err := topology.NewThreeTierTree(topology.ThreeTierConfig{
		Pods: p.Pods, ToRsPerPod: p.ToRsPerPod, HostsPerToR: p.HostsPerToR,
	})
	if err != nil {
		return nil, err
	}
	return NewDesign("three-tier tree", g, modelByTier), nil
}

// quartzRingSimSize is the simulated ring size: "Each simulated Quartz
// ring consists of four switches; the size of the ring does not affect
// performance" (§7).
const quartzRingSimSize = 4

// coreRing adds the Quartz ring that replaces the core: four ULL
// switches qcore0…qcore3 at the given tier, meshed at 40 Gb/s.
func coreRing(g *topology.Graph, tier topology.Tier) []topology.NodeID {
	ring := make([]topology.NodeID, quartzRingSimSize)
	for i := range ring {
		ring[i] = g.AddSwitch("qcore", tier, -1, i)
	}
	g.Mesh(ring, 40*sim.Gbps)
	return ring
}

// podRing adds pod's edge ring of ToRsPerPod ULL switches: for each
// switch i, the switch <prefix><pod>-<i> in rack pod·ToRsPerPod + i, its
// hosts at 10 Gb/s and, when uplink is non-nil, the uplinks uplink adds;
// then the ring's full mesh at 10 Gb/s.
func podRing(g *topology.Graph, p ArchParams, pod int, prefix string, uplink func(i int, sw topology.NodeID)) []topology.NodeID {
	ring := make([]topology.NodeID, p.ToRsPerPod)
	for i := range ring {
		rack := pod*p.ToRsPerPod + i
		ring[i] = g.AddSwitch(prefix, topology.TierToR, rack, pod, i)
		g.AddHosts(ring[i], rack, p.HostsPerToR, 10*sim.Gbps)
		if uplink != nil {
			uplink(i, ring[i])
		}
	}
	g.Mesh(ring, 10*sim.Gbps)
	return ring
}

// QuartzInCore builds Figure 15(b): the 3-tier structure with the core
// switches replaced by one Quartz ring of four ULL switches meshed at
// 40 Gb/s; each aggregation switch connects to two ring switches. The
// ring's switches are TierAgg so that they get the ULL model.
func QuartzInCore(p ArchParams) (*Architecture, error) {
	p.setDefaults()
	g := topology.New("quartz-in-core")
	ring := coreRing(g, topology.TierAgg)
	rack := 0
	for pod := 0; pod < p.Pods; pod++ {
		aggs := make([]topology.NodeID, 2)
		for a := range aggs {
			aggs[a] = g.AddSwitch("agg", topology.TierAgg, -1, pod, a)
			// Connect to two ring switches, spread across pods.
			g.Connect(aggs[a], ring[(pod+a)%len(ring)], 40*sim.Gbps, topology.DefaultProp)
			g.Connect(aggs[a], ring[(pod+a+1)%len(ring)], 40*sim.Gbps, topology.DefaultProp)
		}
		for t := 0; t < p.ToRsPerPod; t++ {
			tor := g.AddSwitch("tor", topology.TierToR, rack, pod, t)
			for _, a := range aggs {
				g.Connect(tor, a, 40*sim.Gbps, topology.DefaultProp)
			}
			g.AddHosts(tor, rack, p.HostsPerToR, 10*sim.Gbps)
			rack++
		}
	}
	return NewDesign("quartz in core", g, allULL), nil
}

// QuartzInEdge builds Figure 15(c): the ToR and aggregation tiers are
// replaced by Quartz rings (one 4-switch ring per pod); servers attach
// at 10 Gb/s and the rings connect to the CCS cores at 40 Gb/s.
func QuartzInEdge(p ArchParams) (*Architecture, error) {
	p.setDefaults()
	g := topology.New("quartz-in-edge")
	cores := make([]topology.NodeID, 2)
	for i := range cores {
		cores[i] = g.AddSwitch("core", topology.TierCore, -1, i)
	}
	for pod := 0; pod < p.Pods; pod++ {
		// Each ring switch runs two parallel 40 Gb/s uplinks to each
		// core: the ring replaces both the ToR and the aggregation
		// tier, so it owns the pod's full uplink capacity (Figure
		// 15(c)).
		podRing(g, p, pod, "qtor", func(_ int, sw topology.NodeID) {
			for _, c := range cores {
				g.Connect(sw, c, 40*sim.Gbps, topology.DefaultProp)
				g.Connect(sw, c, 40*sim.Gbps, topology.DefaultProp)
			}
		})
	}
	return NewDesign("quartz in edge", g, modelByTier), nil
}

// QuartzInEdgeAndCore builds Figure 15(d): edge rings as in
// QuartzInEdge, with the core replaced by a Quartz ring as in
// QuartzInCore.
func QuartzInEdgeAndCore(p ArchParams) (*Architecture, error) {
	p.setDefaults()
	g := topology.New("quartz-in-edge-and-core")
	ringCore := coreRing(g, topology.TierCore)
	for pod := 0; pod < p.Pods; pod++ {
		// Each ring switch uplinks to two core-ring switches.
		podRing(g, p, pod, "qtor", func(i int, sw topology.NodeID) {
			g.Connect(sw, ringCore[(pod+i)%len(ringCore)], 40*sim.Gbps, topology.DefaultProp)
			g.Connect(sw, ringCore[(pod+i+1)%len(ringCore)], 40*sim.Gbps, topology.DefaultProp)
		})
	}
	return NewDesign("quartz in edge and core", g, allULL), nil
}

// Jellyfish builds §7's random baseline: 16 ULL switches, each
// dedicating four 10 Gb/s links to other switches.
func Jellyfish(p ArchParams, rng *rand.Rand) (*Architecture, error) {
	p.setDefaults()
	if rng == nil {
		return nil, fmt.Errorf("core: jellyfish needs a Rand")
	}
	g, err := topology.NewJellyfish(topology.JellyfishConfig{
		Switches:       p.Pods * p.ToRsPerPod,
		HostsPerSwitch: p.HostsPerToR,
		NetDegree:      4,
		Rand:           rng,
	})
	if err != nil {
		return nil, err
	}
	return NewDesign("jellyfish", g, allULL), nil
}

// QuartzInJellyfish builds §7's sixth architecture: four Quartz rings
// (one per pod), each dedicating four 10 Gb/s links to random other
// rings (§4.3).
func QuartzInJellyfish(p ArchParams, rng *rand.Rand) (*Architecture, error) {
	p.setDefaults()
	if rng == nil {
		return nil, fmt.Errorf("core: quartz-in-jellyfish needs a Rand")
	}
	g := topology.New("quartz-in-jellyfish")
	rings := make([][]topology.NodeID, p.Pods)
	for pod := range rings {
		rings[pod] = podRing(g, p, pod, "q", nil)
	}
	// Random inter-ring links: each ring gets 4 outgoing links to
	// switches in other rings, attachment points round-robin.
	for pod := range rings {
		for l := 0; l < 4; l++ {
			other := rng.Intn(len(rings) - 1)
			if other >= pod {
				other++
			}
			a := rings[pod][l%len(rings[pod])]
			b := rings[other][rng.Intn(len(rings[other]))]
			g.Connect(a, b, 10*sim.Gbps, topology.DefaultProp)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return NewDesign("quartz in jellyfish", g, allULL), nil
}

// WithVLB returns a copy of the architecture routing with VLB at the
// given indirect fraction (only meaningful for mesh-based designs).
func (a *Architecture) WithVLB(indirectFraction float64) (*Architecture, error) {
	vlb, err := routing.NewVLB(a.Graph, indirectFraction)
	if err != nil {
		return nil, err
	}
	out := *a
	out.Name = a.Name + "+vlb"
	out.Router = vlb
	out.VLB = vlb
	return &out, nil
}

// TwoTierTreeArch builds the small-DC baseline of Table 8: ToRs under
// cut-through root switches (§4.4 uses cut-through switches for the
// edge and aggregation tiers of every tree configuration).
func TwoTierTreeArch(p ArchParams) (*Architecture, error) {
	p.setDefaults()
	g, err := topology.NewTwoTierTree(topology.TreeConfig{
		ToRs:        p.Pods * p.ToRsPerPod,
		Roots:       2,
		HostsPerToR: p.HostsPerToR,
	})
	if err != nil {
		return nil, err
	}
	return NewDesign("two-tier tree", g, allULL), nil
}

// QuartzRingArch builds a single Quartz ring as the whole network of a
// small DC (§4's first bullet): all ToR switches fully meshed. The
// architecture carries the full ring plan (Architecture.Ring) — channel
// assignments and fiber split — so fiber-segment fault injection can
// resolve a physical cut to the exact severed mesh links (§3.5).
func QuartzRingArch(p ArchParams) (*Architecture, error) {
	p.setDefaults()
	ring, err := NewRing(RingConfig{
		Switches:       p.Pods * p.ToRsPerPod,
		HostsPerSwitch: p.HostsPerToR,
	})
	if err != nil {
		return nil, err
	}
	a := NewDesign("single Quartz ring", ring.Graph, allULL)
	a.Ring = ring
	return a, nil
}
