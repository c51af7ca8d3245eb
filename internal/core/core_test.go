package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/optics"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/wdm"
)

func TestNewRingSmall(t *testing.T) {
	r, err := NewRing(RingConfig{Switches: 8, HostsPerSwitch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ports() != 128 {
		t.Errorf("Ports = %d, want 128", r.Ports())
	}
	if r.Plan.Rings != 1 {
		t.Errorf("%d fiber rings, want 1", r.Plan.Rings)
	}
	if err := r.Plan.Validate(); err != nil {
		t.Errorf("plan invalid: %v", err)
	}
	if diameter(r.Graph, r.Graph.Switches()) != 1 {
		t.Error("ring graph is not a full mesh")
	}
	if !strings.Contains(r.String(), "8 switches") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestNewRing33NeedsTwoFibers(t *testing.T) {
	// §3.5: 33 switches -> ~137 channels -> two 80-channel muxes.
	r, err := NewRing(RingConfig{Switches: 33, HostsPerSwitch: 31})
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Rings != 2 {
		t.Errorf("%d fiber rings, want 2", r.Plan.Rings)
	}
	if r.Channels() < 136 || r.Channels() > 145 {
		t.Errorf("Channels = %d, want ~137", r.Channels())
	}
	// Two cables per switch per ring.
	if r.WiringComplexity() != 66 {
		t.Errorf("WiringComplexity = %d, want 66", r.WiringComplexity())
	}
}

func TestNewRingPortBudget(t *testing.T) {
	// 33 switches need 32 peer ports, leaving 32 for hosts on a 64-port
	// switch; 33 hosts must be rejected.
	if _, err := NewRing(RingConfig{Switches: 33, HostsPerSwitch: 32}); err != nil {
		t.Errorf("32 hosts rejected: %v", err)
	}
	if _, err := NewRing(RingConfig{Switches: 33, HostsPerSwitch: 33}); err == nil {
		t.Error("33 hosts accepted on a 64-port switch with 32 peers")
	}
}

func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(RingConfig{Switches: 1}); err == nil {
		t.Error("1 switch accepted")
	}
	if _, err := NewRing(RingConfig{Switches: 40, HostsPerSwitch: 1}); err == nil {
		t.Error("40 switches accepted (past fiber limit)")
	}
	if _, err := NewRing(RingConfig{Switches: 8, HostsPerSwitch: -1}); err == nil {
		t.Error("negative hosts accepted")
	}
}

func TestMaxPortsSingleRing(t *testing.T) {
	// §3.2: 64-port switches -> 1056-port equivalent at 33 switches.
	ports, m := MaxPortsSingleRing(64)
	if ports != 1056 || m != 33 {
		t.Errorf("MaxPortsSingleRing(64) = %d at M=%d, want 1056 at 33", ports, m)
	}
}

func archNames(t *testing.T) map[string]*Architecture {
	t.Helper()
	p := ArchParams{}
	out := map[string]*Architecture{}
	tt, err := ThreeTierTree(p)
	if err != nil {
		t.Fatal(err)
	}
	out["tree"] = tt
	qc, err := QuartzInCore(p)
	if err != nil {
		t.Fatal(err)
	}
	out["core"] = qc
	qe, err := QuartzInEdge(p)
	if err != nil {
		t.Fatal(err)
	}
	out["edge"] = qe
	qec, err := QuartzInEdgeAndCore(p)
	if err != nil {
		t.Fatal(err)
	}
	out["edgecore"] = qec
	jf, err := Jellyfish(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	out["jellyfish"] = jf
	qj, err := QuartzInJellyfish(p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	out["qjellyfish"] = qj
	return out
}

func TestArchitecturesAreValid(t *testing.T) {
	for name, a := range archNames(t) {
		if err := a.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Same host count everywhere: 4 pods x 4 tors x 4 hosts = 64.
		if got := len(a.Graph.Hosts()); got != 64 {
			t.Errorf("%s: %d hosts, want 64", name, got)
		}
		if a.Router == nil || a.Model == nil {
			t.Errorf("%s: missing router or model", name)
		}
	}
}

func TestArchitectureHopCounts(t *testing.T) {
	// Host diameters: tree 6 (h-tor-agg-core-agg-tor-h); quartz-in-edge
	// cross-pod 6 but intra-pod 3; edge+core intra-pod 3.
	a := archNames(t)
	if d := diameter(a["tree"].Graph, a["tree"].Graph.Hosts()); d != 6 {
		t.Errorf("tree diameter = %d, want 6", d)
	}
	// Quartz in edge: hosts in the same pod are 3 hops (h-sw-sw-h).
	qe := a["edge"].Graph
	pod0 := qe.HostsInRack(0)
	pod3 := qe.HostsInRack(3)
	dist := qe.BFSDist(pod0[0], nil)
	if got := dist[pod3[0]]; got != 3 {
		t.Errorf("edge intra-pod host distance = %d, want 3", got)
	}
}

func TestArchitectureModels(t *testing.T) {
	a := archNames(t)
	// Tree: core switches get CCS, others ULL.
	tree := a["tree"]
	for _, s := range tree.Graph.Switches() {
		m := tree.Model(tree.Graph.Node(s))
		if tree.Graph.Node(s).Tier == topology.TierCore {
			if m != netsim.CiscoNexus7000 {
				t.Errorf("tree core switch got model %+v", m)
			}
		} else if m != netsim.Arista7150 {
			t.Errorf("tree edge switch got model %+v", m)
		}
	}
	// Quartz in core: everything ULL.
	qc := a["core"]
	for _, s := range qc.Graph.Switches() {
		if m := qc.Model(qc.Graph.Node(s)); m != netsim.Arista7150 {
			t.Errorf("quartz-in-core switch got model %+v", m)
		}
	}
}

func TestWithVLB(t *testing.T) {
	r, err := NewRing(RingConfig{Switches: 6, HostsPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := &Architecture{
		Name:   "ring",
		Graph:  r.Graph,
		Router: routing.NewECMP(r.Graph),
		Model:  allULL,
	}
	v, err := a.WithVLB(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v.VLB == nil || v.Router == a.Router {
		t.Error("WithVLB did not swap the router")
	}
	if !strings.HasSuffix(v.Name, "+vlb") {
		t.Errorf("name = %q", v.Name)
	}
	if a.VLB != nil {
		t.Error("WithVLB mutated the original")
	}
	if _, err := a.WithVLB(2.0); err == nil {
		t.Error("bad fraction accepted")
	}
}

func TestJellyfishErrors(t *testing.T) {
	if _, err := Jellyfish(ArchParams{}, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := QuartzInJellyfish(ArchParams{}, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestChannelReportsAllFeasible(t *testing.T) {
	r, err := NewRing(RingConfig{Switches: 33, HostsPerSwitch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Plan.Assignments); n != 33*32/2 {
		t.Fatalf("%d channels, want %d", n, 33*32/2)
	}
	if err := validateOptics(r); err != nil {
		t.Fatal(err)
	}
	maxHops := 0
	for _, a := range r.Plan.Assignments {
		hops := arcHops(a, 33)
		if hops < 1 || hops > 16 {
			t.Errorf("channel %d spans %d hops, want 1..16 (shortest arcs)", a.Channel, hops)
		}
		maxHops = max(maxHops, hops)
	}
	if maxHops != 16 {
		t.Errorf("longest arc = %d hops, want 16 on a 33-ring", maxHops)
	}
}

func TestValidateOpticsCatchesBadBudget(t *testing.T) {
	r, err := NewRing(RingConfig{Switches: 12, HostsPerSwitch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the amplifier plan: no amps at all.
	r.Budget.AmpAfterHops = 0
	r.Budget.Amplifiers = 0
	if err := validateOptics(r); err == nil {
		t.Error("unamplified 12-ring passed per-channel validation")
	}
}

// validateOptics is the per-channel oracle for NewRing's worst-case
// check: it walks every channel of the plan, not only the longest arc,
// through the ring's amplifier plan and fails on any that dips below the
// receiver sensitivity.
func validateOptics(r *Ring) error {
	parts := optics.DefaultParts
	for _, a := range r.Plan.Assignments {
		hops := arcHops(a, r.Config.Switches)
		if low, _ := optics.WalkChannel(parts, hops, r.Budget.AmpAfterHops, hopKm); low < parts.RxSensitivityDBm {
			return fmt.Errorf("channel %d (pair %d-%d, %d hops) dips to %.1f dBm, below sensitivity %.1f dBm",
				a.Channel, a.S, a.T, hops, low, parts.RxSensitivityDBm)
		}
	}
	return nil
}

// arcHops is the number of fiber segments a's arc spans on a ring of m.
func arcHops(a wdm.Assignment, m int) int {
	if a.Dir == wdm.Clockwise {
		return (a.T - a.S + m) % m
	}
	return (a.S - a.T + m) % m
}

// diameter is the longest shortest path between two of nodes, or -1 if
// some pair is disconnected.
func diameter(g *topology.Graph, nodes []topology.NodeID) int {
	d := 0
	for _, s := range nodes {
		dist := g.BFSDist(s, nil)
		for _, t := range nodes {
			if dist[t] < 0 {
				return -1
			}
			d = max(d, dist[t])
		}
	}
	return d
}
