package routing

import (
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/topology"
)

// meshWithHosts builds a small full mesh for reroute tests.
func meshWithHosts(t testing.TB, switches int) *topology.Graph {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: switches, HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// directLink returns the mesh link between the ToRs of two hosts.
func directLink(t testing.TB, g *topology.Graph, a, b topology.NodeID) topology.Link {
	t.Helper()
	l, ok := g.FindLink(g.ToRof(a), g.ToRof(b))
	if !ok {
		t.Fatal("no direct link")
	}
	return l
}

// nextFrom routes one packet step at node from toward dst.
func nextFrom(t testing.TB, r Router, from topology.NodeID, pkt PacketMeta) topology.Port {
	t.Helper()
	p, err := r.NextPort(from, pkt)
	if err != nil {
		t.Fatalf("NextPort(%d, %+v): %v", from, pkt, err)
	}
	return p
}

func directPkt(src, dst topology.NodeID, flow FlowID) PacketMeta {
	return PacketMeta{Flow: flow, Src: src, Dst: dst, Waypoint: -1}
}

func TestRerouteCopiesDeadMap(t *testing.T) {
	g := meshWithHosts(t, 4)
	h0, h1 := g.Hosts()[0], g.Hosts()[1]
	direct := directLink(t, g, h0, h1)

	dead := map[topology.LinkID]bool{direct.ID: true}
	r := NewECMP(g)
	r.Reroute(dead)
	// Mutating the caller's map after the call must not change the
	// router's view.
	delete(dead, direct.ID)
	dead[topology.LinkID(999)] = true

	for flow := FlowID(0); flow < 32; flow++ {
		p := nextFrom(t, r, g.ToRof(h0), directPkt(h0, h1, flow))
		if p.Link == direct.ID {
			t.Fatalf("flow %d routed over the avoided link", flow)
		}
	}
}

// checkAvoids asserts that no flow from h0's ToR toward h1 crosses the
// given link.
func checkAvoids(t *testing.T, r Router, g *topology.Graph, h0, h1 topology.NodeID, avoid topology.LinkID) {
	t.Helper()
	for flow := FlowID(0); flow < 32; flow++ {
		p := nextFrom(t, r, g.ToRof(h0), directPkt(h0, h1, flow))
		if p.Link == avoid {
			t.Fatalf("flow %d routed over dead link %d", flow, avoid)
		}
	}
}

func TestRerouteECMP(t *testing.T) {
	g := meshWithHosts(t, 4)
	h0, h1 := g.Hosts()[0], g.Hosts()[1]
	direct := directLink(t, g, h0, h1)
	r := NewECMP(g)

	before := nextFrom(t, r, g.ToRof(h0), directPkt(h0, h1, 1))
	if before.Link != direct.ID {
		t.Fatalf("healthy mesh did not use the direct link")
	}
	r.Reroute(map[topology.LinkID]bool{direct.ID: true})
	checkAvoids(t, r, g, h0, h1, direct.ID)
	// Reroute replaces the dead set: an empty set restores the direct
	// path.
	r.Reroute(nil)
	after := nextFrom(t, r, g.ToRof(h0), directPkt(h0, h1, 1))
	if after.Link != direct.ID {
		t.Errorf("direct link not restored after Reroute(nil)")
	}
}

func TestRerouteVLB(t *testing.T) {
	g := meshWithHosts(t, 4)
	h0, h1 := g.Hosts()[0], g.Hosts()[1]
	direct := directLink(t, g, h0, h1)
	v, err := NewVLB(g, 1.0) // always detour, so waypoints are exercised
	if err != nil {
		t.Fatal(err)
	}
	v.Reroute(map[topology.LinkID]bool{direct.ID: true})
	// Both the direct leg and every waypoint leg must avoid the dead
	// link.
	checkAvoids(t, v, g, h0, h1, direct.ID)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		w := v.ChooseWaypoint(h0, h1, rng)
		if w < 0 {
			continue
		}
		pkt := PacketMeta{Flow: FlowID(i), Src: h0, Dst: h1, Waypoint: w}
		if p := nextFrom(t, v, g.ToRof(h0), pkt); p.Link == direct.ID {
			t.Fatalf("waypoint leg crossed the dead link")
		}
	}
}

// TestRerouteKeepsConnectivity fails a link and checks every host pair
// still resolves a next hop at every step of its walk.
func TestRerouteKeepsConnectivity(t *testing.T) {
	g := meshWithHosts(t, 5)
	direct := directLink(t, g, g.Hosts()[0], g.Hosts()[1])
	r := NewECMP(g)
	r.Reroute(map[topology.LinkID]bool{direct.ID: true})
	for _, src := range g.Hosts() {
		for _, dst := range g.Hosts() {
			if src == dst {
				continue
			}
			at := src
			for hops := 0; at != dst; hops++ {
				if hops > 6 {
					t.Fatalf("%d->%d: no progress after %d hops", src, dst, hops)
				}
				p := nextFrom(t, r, at, directPkt(src, dst, FlowID(src)<<8|FlowID(dst)))
				if p.Link == direct.ID {
					t.Fatalf("%d->%d crossed the dead link", src, dst)
				}
				at = p.Peer
			}
		}
	}
}
