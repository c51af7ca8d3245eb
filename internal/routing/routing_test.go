package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

func mesh(t testing.TB, m, n int) *topology.Graph {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: m, HostsPerSwitch: n})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// walk forwards a packet from src's ToR until it reaches dst, returning
// the switch-level path (excluding hosts). Fails after maxHops.
func walk(t *testing.T, g *topology.Graph, r Router, pkt PacketMeta, maxHops int) []topology.NodeID {
	t.Helper()
	n := g.ToRof(pkt.Src)
	var path []topology.NodeID
	for hops := 0; hops < maxHops; hops++ {
		path = append(path, n)
		if n == pkt.Waypoint {
			pkt.Waypoint = -1
		}
		port, err := r.NextPort(n, pkt)
		if err != nil {
			t.Fatalf("NextPort(%d): %v (path %v)", n, err, path)
		}
		if port.Peer == pkt.Dst {
			return path
		}
		n = port.Peer
	}
	t.Fatalf("packet did not arrive after %d hops; path %v", maxHops, path)
	return nil
}

func TestECMPDirectPathOnMesh(t *testing.T) {
	g := mesh(t, 8, 2)
	r := NewECMP(g)
	hosts := g.Hosts()
	// Any cross-rack pair must use exactly the 2-switch direct path.
	for trial := 0; trial < 20; trial++ {
		src, dst := hosts[trial%len(hosts)], hosts[(trial*7+3)%len(hosts)]
		if g.ToRof(src) == g.ToRof(dst) {
			continue
		}
		path := walk(t, g, r, PacketMeta{Flow: FlowID(trial), Src: src, Dst: dst, Waypoint: -1}, 10)
		if len(path) != 2 {
			t.Errorf("mesh ECMP path %v has %d switches, want 2", path, len(path))
		}
	}
}

func TestECMPSameRack(t *testing.T) {
	g := mesh(t, 4, 2)
	r := NewECMP(g)
	hosts := g.HostsInRack(0)
	path := walk(t, g, r, PacketMeta{Flow: 1, Src: hosts[0], Dst: hosts[1], Waypoint: -1}, 4)
	if len(path) != 1 {
		t.Errorf("same-rack path %v, want single ToR hop", path)
	}
}

func TestECMPUnknownDestination(t *testing.T) {
	g := mesh(t, 3, 1)
	r := NewECMP(g)
	sw := g.Switches()
	if _, err := r.NextPort(sw[0], PacketMeta{Dst: 999, Waypoint: -1}); err == nil {
		t.Error("unknown destination accepted")
	}
	// A switch asked to route to itself-as-destination fails cleanly
	// (hosts are the only valid destinations).
	if _, err := r.NextPort(sw[0], PacketMeta{Dst: sw[1], Waypoint: -1}); err == nil {
		t.Error("switch destination accepted")
	}
}

func TestECMPFlowPinning(t *testing.T) {
	// On a diamond topology with two equal-cost paths, one flow must
	// always take the same path, and different flows should eventually
	// use both.
	g := topology.New("diamond")
	a := g.AddSwitch("a", topology.TierToR, 0)
	b := g.AddSwitch("b", topology.TierAgg, -1)
	c := g.AddSwitch("c", topology.TierAgg, -1)
	d := g.AddSwitch("d", topology.TierToR, 1)
	hs := g.AddHost("hs", 0)
	hd := g.AddHost("hd", 1)
	g.Connect(hs, a, sim.Gbps, 0)
	g.Connect(hd, d, sim.Gbps, 0)
	g.Connect(a, b, sim.Gbps, 0)
	g.Connect(a, c, sim.Gbps, 0)
	g.Connect(b, d, sim.Gbps, 0)
	g.Connect(c, d, sim.Gbps, 0)
	r := NewECMP(g)

	seen := map[topology.NodeID]bool{}
	for f := 0; f < 64; f++ {
		pkt := PacketMeta{Flow: FlowID(f), Src: hs, Dst: hd, Waypoint: -1}
		first, err := r.NextPort(a, pkt)
		if err != nil {
			t.Fatal(err)
		}
		seen[first.Peer] = true
		// Same flow: same choice every time.
		for i := 0; i < 5; i++ {
			again, err := r.NextPort(a, pkt)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("flow %d flapped between ports %v and %v", f, first, again)
			}
		}
	}
	if !seen[b] || !seen[c] {
		t.Errorf("64 flows only used paths %v; want both b and c", seen)
	}
}

func TestVLBWaypointRouting(t *testing.T) {
	g := mesh(t, 6, 2)
	v, err := NewVLB(g, 1.0) // all flows indirect
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	sSw, dSw := g.ToRof(src), g.ToRof(dst)
	for trial := 0; trial < 50; trial++ {
		w := v.ChooseWaypoint(src, dst, rng)
		if w < 0 {
			t.Fatalf("fraction=1.0 returned direct path")
		}
		if w == sSw || w == dSw {
			t.Fatalf("waypoint %d is an endpoint ToR", w)
		}
		path := walk(t, g, v, PacketMeta{Flow: FlowID(trial), Src: src, Dst: dst, Waypoint: w}, 10)
		if len(path) != 3 {
			t.Errorf("VLB path %v has %d switches, want 3 (two-hop)", path, len(path))
		}
		if path[1] != w {
			t.Errorf("VLB path %v does not transit waypoint %d", path, w)
		}
	}
}

func TestVLBDirectFraction(t *testing.T) {
	g := mesh(t, 6, 2)
	v, err := NewVLB(g, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	hosts := g.Hosts()
	for trial := 0; trial < 20; trial++ {
		if w := v.ChooseWaypoint(hosts[0], hosts[len(hosts)-1], rng); w != -1 {
			t.Fatalf("fraction=0 chose waypoint %d", w)
		}
	}
}

func TestVLBFractionSplit(t *testing.T) {
	g := mesh(t, 8, 1)
	v, err := NewVLB(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	hosts := g.Hosts()
	indirect := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if v.ChooseWaypoint(hosts[0], hosts[7], rng) >= 0 {
			indirect++
		}
	}
	frac := float64(indirect) / trials
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("indirect fraction = %.3f, want ~0.5", frac)
	}
}

func TestVLBInvalidFraction(t *testing.T) {
	g := mesh(t, 3, 1)
	if _, err := NewVLB(g, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := NewVLB(g, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestVLBTinyMeshFallsBackToDirect(t *testing.T) {
	// Two switches: no third switch to detour through.
	g := mesh(t, 2, 1)
	v, err := NewVLB(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	hosts := g.Hosts()
	if w := v.ChooseWaypoint(hosts[0], hosts[1], rng); w != -1 {
		t.Errorf("2-switch mesh chose waypoint %d, want direct", w)
	}
}

// TestECMPValidNextHopProperty checks on random meshes that every
// ECMP hop moves strictly closer to the destination.
func TestECMPValidNextHopProperty(t *testing.T) {
	f := func(mm, ff uint16) bool {
		m := int(mm%10) + 2
		g, err := topology.NewFullMesh(topology.MeshConfig{Switches: m, HostsPerSwitch: 2})
		if err != nil {
			return false
		}
		r := NewECMP(g)
		hosts := g.Hosts()
		src := hosts[int(ff)%len(hosts)]
		dst := hosts[int(ff/7)%len(hosts)]
		if src == dst {
			return true
		}
		dist := g.BFSDist(dst, nil)
		n := g.ToRof(src)
		for n != dst {
			port, err := r.NextPort(n, PacketMeta{Flow: FlowID(ff), Src: src, Dst: dst, Waypoint: -1})
			if err != nil {
				return false
			}
			if dist[port.Peer] != dist[n]-1 {
				return false
			}
			n = port.Peer
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRouterNames(t *testing.T) {
	g := mesh(t, 3, 1)
	if NewECMP(g).Name() != "ecmp" {
		t.Error("ECMP name wrong")
	}
	v, _ := NewVLB(g, 0.25)
	if v.Name() != "vlb(0.25)" {
		t.Errorf("VLB name = %q", v.Name())
	}
}
