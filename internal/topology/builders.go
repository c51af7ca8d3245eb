package topology

import (
	"fmt"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/sim"
)

// Default propagation delay for intra-datacenter links: 50 m of fiber at
// ~5 ns/m. Every builder's links carry it.
const DefaultProp = 250 * sim.Nanosecond

// The builders' link rates: server links (and Jellyfish's and BCube's
// every link) run at edgeRate, a tree's uplinks at upRate.
const (
	edgeRate = 10 * sim.Gbps
	upRate   = 40 * sim.Gbps
)

// MeshConfig describes a full mesh of ToR switches — the logical topology
// of a Quartz ring (§3 of the paper).
type MeshConfig struct {
	// Switches is the number of ToR switches (M, the ring size).
	Switches int
	// HostsPerSwitch is n, the number of server-facing ports used.
	HostsPerSwitch int
	// HostRate and MeshRate are the two link classes' rates; zero
	// defaults to 10 Gb/s.
	HostRate sim.Rate
	MeshRate sim.Rate
}

// NewFullMesh builds a full mesh of ToR switches with hosts attached —
// the logical view of a single Quartz ring.
func NewFullMesh(cfg MeshConfig) (*Graph, error) {
	if cfg.Switches < 1 {
		return nil, fmt.Errorf("topology: mesh needs >=1 switch, got %d", cfg.Switches)
	}
	if cfg.HostsPerSwitch < 0 {
		return nil, fmt.Errorf("topology: negative hosts per switch")
	}
	if cfg.HostRate == 0 {
		cfg.HostRate = edgeRate
	}
	if cfg.MeshRate == 0 {
		cfg.MeshRate = edgeRate
	}
	g := New(fmt.Sprintf("mesh(M=%d,n=%d)", cfg.Switches, cfg.HostsPerSwitch))
	sw := make([]NodeID, cfg.Switches)
	for i := range sw {
		sw[i] = g.AddSwitch("tor", TierToR, i, i)
		g.AddHosts(sw[i], i, cfg.HostsPerSwitch, cfg.HostRate)
	}
	g.Mesh(sw, cfg.MeshRate)
	return g, nil
}

// TreeConfig describes a 2-tier multi-root tree: ToR switches each
// connected to every root (aggregation) switch, hosts at 10 Gb/s and
// uplinks at 40 Gb/s.
type TreeConfig struct {
	ToRs           int
	Roots          int
	HostsPerToR    int
	UplinksPerRoot int // parallel links from each ToR to each root (default 1)
}

// NewTwoTierTree builds a 2-tier multi-root tree.
func NewTwoTierTree(cfg TreeConfig) (*Graph, error) {
	if cfg.ToRs < 1 || cfg.Roots < 1 {
		return nil, fmt.Errorf("topology: 2-tier tree needs >=1 ToR and root, got %d/%d", cfg.ToRs, cfg.Roots)
	}
	if cfg.UplinksPerRoot == 0 {
		cfg.UplinksPerRoot = 1
	}
	g := New(fmt.Sprintf("two-tier(tors=%d,roots=%d)", cfg.ToRs, cfg.Roots))
	roots := make([]NodeID, cfg.Roots)
	for i := range roots {
		roots[i] = g.AddSwitch("root", TierAgg, -1, i)
	}
	for i := 0; i < cfg.ToRs; i++ {
		tor := g.AddSwitch("tor", TierToR, i, i)
		g.AddHosts(tor, i, cfg.HostsPerToR, edgeRate)
		for _, r := range roots {
			for u := 0; u < cfg.UplinksPerRoot; u++ {
				g.Connect(tor, r, upRate, DefaultProp)
			}
		}
	}
	return g, nil
}

// ThreeTierConfig describes the paper's baseline 3-tier multi-root tree
// (Figure 15(a)): pods of ToR switches under aggregation switches, with
// aggregation switches connected to core switches. Each ToR connects to
// both of its pod's two aggregation switches, each of those to both of
// the two cores (the paper's sizes). Host links run at 10 Gb/s,
// ToR-to-agg and agg-to-core links at 40 Gb/s.
type ThreeTierConfig struct {
	// Pods is the number of aggregation pods.
	Pods int
	// ToRsPerPod is the number of ToR switches in each pod.
	ToRsPerPod int
	// HostsPerToR is the number of servers per rack.
	HostsPerToR int
}

// A 3-tier tree's aggregation switches per pod and core switches.
const (
	treeAggsPerPod = 2
	treeCores      = 2
)

// NewThreeTierTree builds a 3-tier multi-root tree.
func NewThreeTierTree(cfg ThreeTierConfig) (*Graph, error) {
	if cfg.Pods < 1 || cfg.ToRsPerPod < 1 {
		return nil, fmt.Errorf("topology: invalid 3-tier config %+v", cfg)
	}
	g := New(fmt.Sprintf("three-tier(pods=%d,tors=%d,aggs=%d,cores=%d)",
		cfg.Pods, cfg.ToRsPerPod, treeAggsPerPod, treeCores))
	cores := make([]NodeID, treeCores)
	for i := range cores {
		cores[i] = g.AddSwitch("core", TierCore, -1, i)
	}
	rack := 0
	for p := 0; p < cfg.Pods; p++ {
		aggs := make([]NodeID, treeAggsPerPod)
		for a := range aggs {
			aggs[a] = g.AddSwitch("agg", TierAgg, -1, p, a)
			for _, c := range cores {
				g.Connect(aggs[a], c, upRate, DefaultProp)
			}
		}
		for t := 0; t < cfg.ToRsPerPod; t++ {
			tor := g.AddSwitch("tor", TierToR, rack, p, t)
			g.AddHosts(tor, rack, cfg.HostsPerToR, edgeRate)
			for _, a := range aggs {
				g.Connect(tor, a, upRate, DefaultProp)
			}
			rack++
		}
	}
	return g, nil
}

// NewBCube builds a BCube(n, k) of Guo et al.: n-port hosts... more
// precisely, level-k BCube with n-port switches. Hosts have k+1 links;
// there are n^(k+1) hosts and (k+1)*n^k switches. BCube is
// server-centric: switches never connect to switches, and multi-hop
// forwarding goes through hosts. Every link runs at 10 Gb/s.
func NewBCube(n, k int) (*Graph, error) {
	if n < 2 || k < 0 {
		return nil, fmt.Errorf("topology: bcube needs n>=2, k>=0, got n=%d k=%d", n, k)
	}
	g := New(fmt.Sprintf("bcube(n=%d,k=%d)", n, k))
	numHosts := 1
	for i := 0; i <= k; i++ {
		numHosts *= n
	}
	hosts := make([]NodeID, numHosts)
	for i := range hosts {
		// A host's rack is its BCube-0 group: hosts sharing a level-0
		// switch.
		hosts[i] = g.AddHost("h", i/n, i)
	}
	// Level l has n^k switches; switch j at level l connects to the n
	// hosts whose address agrees with j in all digits except digit l.
	numSwitchesPerLevel := numHosts / n
	pow := 1 // n^l
	for l := 0; l <= k; l++ {
		for j := 0; j < numSwitchesPerLevel; j++ {
			rack := -1
			if l == 0 {
				rack = j
			}
			sw := g.AddSwitch("sw", TierToR, rack, l, j)
			// j encodes all digits except digit l. Reconstruct the host
			// addresses: low = j mod n^l gives digits below l, high =
			// j div n^l gives digits above l.
			low := j % pow
			high := j / pow
			for d := 0; d < n; d++ {
				host := hosts[high*pow*n+d*pow+low]
				g.Connect(host, sw, edgeRate, DefaultProp)
			}
		}
		pow *= n
	}
	return g, nil
}

// JellyfishConfig describes a Jellyfish random regular graph of ToR
// switches (Singla et al.), every link at 10 Gb/s.
type JellyfishConfig struct {
	Switches       int
	HostsPerSwitch int
	// NetDegree is the number of switch-to-switch ports per switch (r in
	// the paper).
	NetDegree int
	// Rand seeds the random graph; required.
	Rand *rand.Rand
}

// NewJellyfish builds a random regular graph of switches using the
// Jellyfish construction: repeatedly join random port pairs, fixing up
// non-regular leftovers with edge swaps.
func NewJellyfish(cfg JellyfishConfig) (*Graph, error) {
	if cfg.Switches < 2 {
		return nil, fmt.Errorf("topology: jellyfish needs >=2 switches, got %d", cfg.Switches)
	}
	if cfg.NetDegree < 1 || cfg.NetDegree >= cfg.Switches {
		return nil, fmt.Errorf("topology: jellyfish net degree %d invalid for %d switches", cfg.NetDegree, cfg.Switches)
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("topology: jellyfish requires a seeded *rand.Rand")
	}
	g := New(fmt.Sprintf("jellyfish(sw=%d,r=%d)", cfg.Switches, cfg.NetDegree))
	sw := make([]NodeID, cfg.Switches)
	for i := range sw {
		sw[i] = g.AddSwitch("sw", TierToR, i, i)
		g.AddHosts(sw[i], i, cfg.HostsPerSwitch, edgeRate)
	}
	// Random regular graph via pairing with retry. adj tracks
	// switch-switch adjacency to avoid parallel links and self-loops.
	free := make([]int, cfg.Switches) // remaining network ports per switch
	for i := range free {
		free[i] = cfg.NetDegree
	}
	adj := make([]map[int]bool, cfg.Switches)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	connect := func(a, b int) {
		g.Connect(sw[a], sw[b], edgeRate, DefaultProp)
		adj[a][b], adj[b][a] = true, true
		free[a]--
		free[b]--
	}
	var open []int // switches with free ports
	refresh := func() {
		open = open[:0]
		for i, f := range free {
			if f > 0 {
				open = append(open, i)
			}
		}
	}
	refresh()
	stall := 0
	for len(open) > 1 && stall < 1000 {
		a := open[cfg.Rand.Intn(len(open))]
		b := open[cfg.Rand.Intn(len(open))]
		if a == b || adj[a][b] {
			stall++
			continue
		}
		connect(a, b)
		stall = 0
		refresh()
	}
	// Fix-up: if ports remain on switches that are all mutually
	// connected, break a random existing switch link (x,y) where x,y are
	// not adjacent to the stuck switches, and rewire.
	for {
		refresh()
		if len(open) == 0 {
			break
		}
		if len(open) == 1 && free[open[0]] == 1 {
			// One odd port left over: acceptable, leave it unused.
			break
		}
		a := open[0]
		// Find a link (x,y) with x,y both non-adjacent to a.
		rewired := false
		links := g.links
		for tries := 0; tries < 4*len(links); tries++ {
			l := links[cfg.Rand.Intn(len(links))]
			na, nb := g.Node(l.A), g.Node(l.B)
			if na.Kind != Switch || nb.Kind != Switch {
				continue
			}
			x, y := na.Rack, nb.Rack // rack == switch index by construction
			if x == a || y == a || adj[a][x] || adj[a][y] {
				continue
			}
			// Remove link l and connect a-x and a-y.
			g.removeLink(l.ID)
			delete(adj[x], y)
			delete(adj[y], x)
			free[x]++
			free[y]++
			connect(a, x)
			if free[a] > 0 {
				connect(a, y)
			}
			rewired = true
			break
		}
		if !rewired {
			break // give up; graph is still connected and nearly regular
		}
	}
	if cc := g.ConnectedComponents(nil); cc != 1 {
		return nil, fmt.Errorf("topology: jellyfish construction disconnected (%d components); use another seed", cc)
	}
	return g, nil
}

// removeLink deletes link id from the graph, renumbering the last link
// into its place. Only builders use it.
func (g *Graph) removeLink(id LinkID) {
	l := g.links[id]
	drop := func(n NodeID) {
		ports := g.ports[n]
		for i, p := range ports {
			if p.Link == id {
				g.ports[n] = append(ports[:i], ports[i+1:]...)
				break
			}
		}
	}
	drop(l.A)
	drop(l.B)
	last := LinkID(len(g.links) - 1)
	if id != last {
		moved := g.links[last]
		moved.ID = id
		g.links[id] = moved
		for _, n := range []NodeID{moved.A, moved.B} {
			for i, p := range g.ports[n] {
				if p.Link == last {
					g.ports[n][i].Link = id
				}
			}
		}
	}
	g.links = g.links[:last]
}
