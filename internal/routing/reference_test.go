package routing

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// refNext and refAllShortestNextHopsAvoiding are ECMP's tables as they
// were built before they were keyed by attachment switch: one search and
// one [][]Port per destination host, next[dst][n]. They live only in
// this test file, beside a naive oracle that shares no code with either.

func refNext(g *topology.Graph, dead map[topology.LinkID]bool) [][][]topology.Port {
	next := make([][][]topology.Port, g.NumNodes())
	for _, h := range g.Hosts() {
		next[h] = refAllShortestNextHopsAvoiding(g, h, dead)
	}
	return next
}

func refAllShortestNextHopsAvoiding(g *topology.Graph, dst topology.NodeID, dead map[topology.LinkID]bool) [][]topology.Port {
	dist := g.BFSDist(dst, dead)
	onPath := func(n int, p topology.Port) bool {
		return !dead[p.Link] && dist[p.Peer] >= 0 && dist[p.Peer] == dist[n]-1
	}
	total := 0
	for n := 0; n < g.NumNodes(); n++ {
		if dist[n] <= 0 { // dst itself or unreachable
			continue
		}
		for _, p := range g.Ports(topology.NodeID(n)) {
			if onPath(n, p) {
				total++
			}
		}
	}
	next := make([][]topology.Port, g.NumNodes())
	backing := make([]topology.Port, 0, total)
	for n := 0; n < g.NumNodes(); n++ {
		if dist[n] <= 0 {
			continue
		}
		lo := len(backing)
		for _, p := range g.Ports(topology.NodeID(n)) {
			if onPath(n, p) {
				backing = append(backing, p)
			}
		}
		if hi := len(backing); hi > lo {
			next[n] = backing[lo:hi:hi]
		}
	}
	return next
}

// naiveDist is every node's hop distance to dst over the links not in
// dead, -1 where there is no path, by relaxing every link until nothing
// changes: no queue, no search order.
func naiveDist(g *topology.Graph, dst topology.NodeID, dead map[topology.LinkID]bool) []int {
	dist := make([]int, g.NumNodes())
	for n := range dist {
		dist[n] = -1
	}
	dist[dst] = 0
	for changed := true; changed; {
		changed = false
		for i := 0; i < g.NumLinks(); i++ {
			l := g.Link(topology.LinkID(i))
			if dead[l.ID] {
				continue
			}
			for _, e := range [2][2]topology.NodeID{{l.A, l.B}, {l.B, l.A}} {
				from, to := e[0], e[1]
				if dist[from] >= 0 && (dist[to] < 0 || dist[from]+1 < dist[to]) {
					dist[to] = dist[from] + 1
					changed = true
				}
			}
		}
	}
	return dist
}

// naiveNextHops is the oracle's next-hop list: n's live ports whose peer
// is one hop nearer dst, in port order, and none at dst or where dst is
// unreachable.
func naiveNextHops(g *topology.Graph, dist []int, dead map[topology.LinkID]bool, n topology.NodeID) []topology.Port {
	var out []topology.Port
	if dist[n] <= 0 {
		return nil
	}
	for _, p := range g.Ports(n) {
		if !dead[p.Link] && dist[p.Peer] == dist[n]-1 {
			out = append(out, p)
		}
	}
	return out
}

// checkTables routes g with ECMP and VLB around each dead set in turn,
// on one router of each, and fails unless every (node, host) next-hop
// list equals the oracle's and the reference tables' — same ports, same
// order, so every hash picks what it picked — a host with no next hop
// anywhere is "no route" rather than an unknown destination, and VLB's
// distance to every switch is the oracle's.
func checkTables(t testing.TB, name string, g *topology.Graph, deads ...map[topology.LinkID]bool) {
	t.Helper()
	e := NewECMP(g)
	v, err := NewVLB(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, dead := range deads {
		if i > 0 || dead != nil {
			e.Reroute(dead)
			v.Reroute(dead)
		}
		ref := refNext(g, dead)
		for _, dst := range g.Hosts() {
			dist := naiveDist(g, dst, dead)
			for n := topology.NodeID(0); int(n) < g.NumNodes(); n++ {
				want := naiveNextHops(g, dist, dead, n)
				got := e.nextHops(n, dst)
				if !slices.Equal(got, want) || !slices.Equal(ref[dst][n], want) {
					t.Fatalf("%s, dead %v: %d -> host %d: tables %v, reference %v, oracle %v",
						name, dead, n, dst, got, ref[dst][n], want)
				}
				_, err := e.NextPort(n, PacketMeta{Dst: dst, Waypoint: -1})
				if len(want) > 0 && err != nil || len(want) == 0 && (err == nil || !strings.Contains(err.Error(), "no route")) {
					t.Fatalf("%s, dead %v: %d -> host %d with next hops %v: NextPort error %v", name, dead, n, dst, want, err)
				}
			}
		}
		nn := g.NumNodes()
		for _, sw := range g.Switches() {
			if got, want := v.dist[int(v.row[sw])*nn:][:nn], naiveDist(g, sw, dead); !slices.EqualFunc(got, want, func(a int32, b int) bool { return int(a) == b }) {
				t.Fatalf("%s, dead %v: VLB distances to switch %d %v, oracle %v", name, dead, sw, got, want)
			}
		}
		for _, sw := range g.Switches() {
			if _, err := e.NextPort(sw, PacketMeta{Dst: sw, Waypoint: -1}); err == nil || !strings.Contains(err.Error(), "unknown destination") {
				t.Fatalf("%s: switch %d as a destination: %v, want unknown destination", name, sw, err)
			}
		}
	}
}

// deadSets returns the failures TestECMPTablesAreShortestPaths routes g
// around, after the intact graph and before it again: one switch-to-
// switch link, one host's first uplink, and every link of one switch.
func deadSets(g *topology.Graph) []map[topology.LinkID]bool {
	sets := []map[topology.LinkID]bool{nil}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if g.Node(l.A).Kind == topology.Switch && g.Node(l.B).Kind == topology.Switch {
			sets = append(sets, map[topology.LinkID]bool{l.ID: true})
			break
		}
	}
	if hosts := g.Hosts(); len(hosts) > 0 && g.Degree(hosts[0]) > 0 {
		sets = append(sets, map[topology.LinkID]bool{g.Ports(hosts[0])[0].Link: true})
	}
	if sws := g.Switches(); len(sws) > 0 {
		whole := map[topology.LinkID]bool{}
		for _, p := range g.Ports(sws[len(sws)/2]) {
			whole[p.Link] = true
		}
		sets = append(sets, whole)
	}
	return append(sets, nil)
}

// fuzzGraph decodes a graph of at most 8 switches and 16 hosts and a
// dead-link set from data. Each host byte with its top bit clear uplinks
// the host to a switch (dead when bit 6 is set); then up to 47 byte
// pairs join any two distinct nodes, so hosts end up multi-homed,
// attached to hosts or to nothing, and links parallel. The top bit of a
// pair's first byte kills the link.
func fuzzGraph(data []byte) (*topology.Graph, map[topology.LinkID]bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := topology.New("fuzz")
	nsw, nh := 1+next()%8, next()%17
	for i := 0; i < nsw; i++ {
		g.AddSwitch("s", topology.TierToR, i, i)
	}
	for i := 0; i < nh; i++ {
		g.AddHost("h", -1, i)
	}
	dead := map[topology.LinkID]bool{}
	for _, h := range g.Hosts() {
		if b := next(); b&0x80 == 0 {
			dead[g.Connect(h, topology.NodeID(b%nsw), sim.Gbps, 0)] = b&0x40 != 0
		}
	}
	for nl := next() % 48; nl > 0; nl-- {
		a, b := next(), next()
		x, y := topology.NodeID((a&0x7f)%g.NumNodes()), topology.NodeID(b%g.NumNodes())
		if x != y {
			dead[g.Connect(x, y, sim.Gbps, 0)] = a&0x80 != 0
		}
	}
	return g, dead
}

// FuzzECMPTables checks the tables on arbitrary small graphs and dead
// sets against the oracle and the reference (checkTables), intact, then
// around the decoded failures, then intact again.
func FuzzECMPTables(f *testing.F) {
	// Three switches in a triangle with two hosts each, and an idle fourth.
	f.Add([]byte{3, 6, 0, 0, 1, 1, 2, 2, 3, 0, 1, 1, 2, 2, 0})
	// A dead uplink beside a live parallel one, an isolated host, a
	// host-to-host link.
	f.Add([]byte{2, 4, 0, 0x41, 1, 0x80, 2, 2, 4, 4, 5})
	// Parallel switch links, a dead one, a multi-homed host, a
	// host-to-host link.
	f.Add([]byte{4, 8, 0, 0, 1, 1, 2, 2, 3, 3, 6, 0, 1, 0, 1, 0x81, 2, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, dead := fuzzGraph(data)
		checkTables(t, fmt.Sprintf("fuzz graph %v", data), g, nil, dead, nil)
	})
}
