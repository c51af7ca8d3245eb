package topology

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/quartz-dcn/quartz/internal/sim"
)

func TestGraphBasics(t *testing.T) {
	g := New("test")
	s0 := g.AddSwitch("s0", TierToR, 0)
	s1 := g.AddSwitch("s1", TierToR, 1)
	h0 := g.AddHost("h0", 0)
	h1 := g.AddHost("h1", 1)
	g.Connect(h0, s0, 10*sim.Gbps, DefaultProp)
	g.Connect(h1, s1, 10*sim.Gbps, DefaultProp)
	l := g.Connect(s0, s1, 40*sim.Gbps, DefaultProp)

	if g.NumNodes() != 4 || g.NumLinks() != 3 {
		t.Fatalf("got %d nodes %d links, want 4/3", g.NumNodes(), g.NumLinks())
	}
	if got := g.ToRof(h0); got != s0 {
		t.Errorf("ToRof(h0) = %d, want %d", got, s0)
	}
	if g.Link(l).Other(s0) != s1 || g.Link(l).Other(s1) != s0 {
		t.Errorf("Link.Other wrong")
	}
	if len(g.Hosts()) != 2 || len(g.Switches()) != 2 {
		t.Errorf("hosts/switches = %d/%d, want 2/2", len(g.Hosts()), len(g.Switches()))
	}
	if _, ok := g.FindLink(s0, s1); !ok {
		t.Errorf("FindLink(s0,s1) not found")
	}
	if _, ok := g.FindLink(h0, h1); ok {
		t.Errorf("FindLink(h0,h1) found nonexistent link")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Only the switch-switch link crosses racks.
	if got := g.CrossRackLinks(); got != 1 {
		t.Errorf("CrossRackLinks = %d, want 1", got)
	}
}

// TestNodeNames: a name is its prefix and indices joined as the
// builders' fmt.Sprintf("%s%d-%d") names were, formatted when read.
func TestNodeNames(t *testing.T) {
	g, err := NewThreeTierTree(ThreeTierConfig{Pods: 2, ToRsPerPod: 2, HostsPerToR: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBCube(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lone := New("lone")
	lone.AddSwitch("s0", TierToR, 0)
	orphan := lone.AddHost("h", 1, -3, 12)
	for _, tc := range []struct {
		g    *Graph
		n    NodeID
		want string
	}{
		{g, g.Switches()[1], "core1"},
		{g, g.SwitchesInTier(TierAgg)[3], "agg1-1"},
		{g, g.SwitchesInTier(TierToR)[2], "tor1-0"},
		{g, g.Hosts()[7], "h3-1"},
		{b, b.Hosts()[3], "h3"},
		{b, b.Switches()[3], "sw1-1"},
		{lone, 0, "s0"},
		{lone, orphan, "h-3-12"},
	} {
		if got := tc.g.NodeName(tc.n); got != tc.want {
			t.Errorf("%s node %d is named %q, want %q", tc.g.Name, tc.n, got, tc.want)
		}
	}
	if err := lone.Validate(); err == nil || !strings.Contains(err.Error(), "host h-3-12 has no links") {
		t.Errorf("Validate of a graph with a lone host: %v", err)
	}
}

// TestPortListsKeepConnectOrder connects random node pairs and checks
// after every Connect that each node's port list is what appending to a
// list of its own gives: the slab moves lists and reuses the stretches
// they leave without reordering or overwriting any.
func TestPortListsKeepConnectOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := New("random")
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddSwitch("s", TierToR, i, i)
		}
		want := make([][]Port, n)
		for l := 0; l < 200; l++ {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			id := g.Connect(a, b, sim.Gbps, 0)
			want[a] = append(want[a], Port{Link: id, Peer: b})
			want[b] = append(want[b], Port{Link: id, Peer: a})
			for v := range want {
				if got := g.Ports(NodeID(v)); !reflect.DeepEqual(got, want[v]) && len(got)+len(want[v]) > 0 {
					t.Fatalf("trial %d, after link %d: node %d ports %v, want %v", trial, id, v, got, want[v])
				}
			}
		}
	}
}

func TestConnectPanics(t *testing.T) {
	g := New("test")
	n := g.AddSwitch("s", TierToR, 0)
	for name, fn := range map[string]func(){
		"self-link":    func() { g.Connect(n, n, sim.Gbps, 0) },
		"unknown node": func() { g.Connect(n, 99, sim.Gbps, 0) },
		"zero rate":    func() { m := g.AddSwitch("m", TierToR, 0); g.Connect(n, m, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFullMesh(t *testing.T) {
	g, err := NewFullMesh(MeshConfig{Switches: 6, HostsPerSwitch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Switches()); got != 6 {
		t.Fatalf("switches = %d, want 6", got)
	}
	if got := len(g.Hosts()); got != 24 {
		t.Fatalf("hosts = %d, want 24", got)
	}
	// 6*5/2 = 15 mesh links + 24 host links.
	if got := g.NumLinks(); got != 39 {
		t.Fatalf("links = %d, want 39", got)
	}
	// Every switch pair directly connected: switch-graph diameter 1.
	if d := g.Diameter(g.Switches()); d != 1 {
		t.Errorf("mesh switch diameter = %d, want 1", d)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

// TestMeshAndAddHosts: AddHosts names hosts h<rack>-k in the rack and
// links each to the switch; Mesh links every pair once in index order,
// and calling it again adds a parallel trunk per pair.
func TestMeshAndAddHosts(t *testing.T) {
	g := New("trunks")
	sw := make([]NodeID, 4)
	for i := range sw {
		sw[i] = g.AddSwitch("tor", TierToR, i, i)
		g.AddHosts(sw[i], i, 1, 10*sim.Gbps)
	}
	if h := g.Hosts()[2]; g.NodeName(h) != "h2-0" || g.Node(h).Rack != 2 || g.ToRof(h) != sw[2] {
		t.Errorf("host %s in rack %d on %d, want h2-0 in rack 2 on %d", g.NodeName(h), g.Node(h).Rack, g.ToRof(h), sw[2])
	}
	for range 3 {
		g.Mesh(sw, 40*sim.Gbps)
	}
	// 4 host links, then 3 × 6 mesh links.
	if got := g.NumLinks(); got != 22 {
		t.Fatalf("links = %d, want 22", got)
	}
	var pairs [][2]NodeID
	for l := LinkID(4); l < 10; l++ {
		pairs = append(pairs, [2]NodeID{g.Link(l).A, g.Link(l).B})
	}
	want := [][2]NodeID{{sw[0], sw[1]}, {sw[0], sw[2]}, {sw[0], sw[3]}, {sw[1], sw[2]}, {sw[1], sw[3]}, {sw[2], sw[3]}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("mesh links %v, want %v", pairs, want)
	}
}

func TestFullMeshErrors(t *testing.T) {
	if _, err := NewFullMesh(MeshConfig{Switches: 0}); err == nil {
		t.Error("0 switches accepted")
	}
	if _, err := NewFullMesh(MeshConfig{Switches: 2, HostsPerSwitch: -1}); err == nil {
		t.Error("negative hosts accepted")
	}
}

func TestTwoTierTree(t *testing.T) {
	g, err := NewTwoTierTree(TreeConfig{ToRs: 16, Roots: 1, HostsPerToR: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Table 9's 2-tier entry: 17 switches for ~1k hosts.
	if got := len(g.Switches()); got != 17 {
		t.Errorf("switches = %d, want 17", got)
	}
	if got := len(g.Hosts()); got != 960 {
		t.Errorf("hosts = %d, want 960", got)
	}
	// Wiring complexity: 16 ToR-root links cross racks.
	if got := g.CrossRackLinks(); got != 16 {
		t.Errorf("cross-rack links = %d, want 16", got)
	}
	// Host-to-host worst case: h -> tor -> root -> tor -> h = 4 hops.
	if d := g.Diameter(g.Hosts()); d != 4 {
		t.Errorf("host diameter = %d, want 4", d)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestThreeTierTree(t *testing.T) {
	g, err := NewThreeTierTree(ThreeTierConfig{
		Pods: 4, ToRsPerPod: 4, HostsPerToR: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSwitches := 2 + 4*2 + 4*4 // cores + aggs + tors
	if got := len(g.Switches()); got != wantSwitches {
		t.Errorf("switches = %d, want %d", got, wantSwitches)
	}
	if got := len(g.Hosts()); got != 128 {
		t.Errorf("hosts = %d, want 128", got)
	}
	// Cross-pod host path: h-tor-agg-core-agg-tor-h = 6 hops.
	if d := g.Diameter(g.Hosts()); d != 6 {
		t.Errorf("host diameter = %d, want 6", d)
	}
	if got := len(g.SwitchesInTier(TierCore)); got != 2 {
		t.Errorf("core switches = %d, want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBCube(t *testing.T) {
	// BCube(4,1): 16 hosts, 8 switches, each host 2 links.
	g, err := NewBCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Hosts()); got != 16 {
		t.Errorf("hosts = %d, want 16", got)
	}
	if got := len(g.Switches()); got != 8 {
		t.Errorf("switches = %d, want 8", got)
	}
	for _, h := range g.Hosts() {
		if d := g.Degree(h); d != 2 {
			t.Errorf("host %d degree = %d, want 2", h, d)
		}
	}
	for _, s := range g.Switches() {
		if d := g.Degree(s); d != 4 {
			t.Errorf("switch %d degree = %d, want 4", s, d)
		}
	}
	// Two hosts sharing no switch are exactly 4 hops apart
	// (h-sw-h-sw-h... in BCube(4,1): h0 and h5 differ in both digits).
	hosts := g.Hosts()
	dist := g.BFSDist(hosts[0], nil)
	if dist[hosts[5]] != 4 {
		t.Errorf("bcube dist(h0,h5) = %d, want 4", dist[hosts[5]])
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := NewBCube(1, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestJellyfish(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := NewJellyfish(JellyfishConfig{
		Switches: 24, HostsPerSwitch: 40, NetDegree: 10, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Switches()); got != 24 {
		t.Errorf("switches = %d, want 24", got)
	}
	if got := len(g.Hosts()); got != 960 {
		t.Errorf("hosts = %d, want 960", got)
	}
	// All switches should have close to NetDegree network links.
	short := 0
	for i, s := range g.Switches() {
		netLinks := 0
		for _, p := range g.Ports(s) {
			if g.Node(p.Peer).Kind == Switch {
				netLinks++
			}
		}
		if netLinks > 10 {
			t.Errorf("switch %d has %d net links, want <=10", i, netLinks)
		}
		if netLinks < 10 {
			short += 10 - netLinks
		}
	}
	if short > 2 {
		t.Errorf("%d unused network ports, want <=2", short)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestJellyfishErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewJellyfish(JellyfishConfig{Switches: 1, NetDegree: 1, Rand: rng}); err == nil {
		t.Error("1 switch accepted")
	}
	if _, err := NewJellyfish(JellyfishConfig{Switches: 4, NetDegree: 4, Rand: rng}); err == nil {
		t.Error("degree >= switches accepted")
	}
	if _, err := NewJellyfish(JellyfishConfig{Switches: 4, NetDegree: 2}); err == nil {
		t.Error("nil Rand accepted")
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	build := func() *Graph {
		g, err := NewJellyfish(JellyfishConfig{
			Switches: 12, HostsPerSwitch: 2, NetDegree: 4,
			Rand: rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := build(), build()
	if a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed, different link counts: %d vs %d", a.NumLinks(), b.NumLinks())
	}
	for i := 0; i < a.NumLinks(); i++ {
		la, lb := a.Link(LinkID(i)), b.Link(LinkID(i))
		if la.A != lb.A || la.B != lb.B {
			t.Fatalf("same seed, link %d differs: %v vs %v", i, la, lb)
		}
	}
}

func TestBFSDistAndShortestPath(t *testing.T) {
	// Path graph: s0 - s1 - s2 - s3.
	g := New("path")
	var sw [4]NodeID
	for i := range sw {
		sw[i] = g.AddSwitch("s", TierToR, i)
	}
	var links [3]LinkID
	for i := 0; i < 3; i++ {
		links[i] = g.Connect(sw[i], sw[i+1], sim.Gbps, 0)
	}
	dist := g.BFSDist(sw[0], nil)
	for i, want := range []int{0, 1, 2, 3} {
		if dist[sw[i]] != want {
			t.Errorf("dist[s%d] = %d, want %d", i, dist[sw[i]], want)
		}
	}
	p := g.ShortestPath(sw[0], sw[3], nil)
	if len(p) != 4 || p[0] != sw[0] || p[3] != sw[3] {
		t.Errorf("ShortestPath = %v", p)
	}
	// Failing the middle link disconnects s0 from s3.
	dead := map[LinkID]bool{links[1]: true}
	if g.ShortestPath(sw[0], sw[3], dead) != nil {
		t.Error("path found across dead link")
	}
	if cc := g.ConnectedComponents(dead); cc != 2 {
		t.Errorf("components with dead middle link = %d, want 2", cc)
	}
	if p := g.ShortestPath(sw[2], sw[2], nil); len(p) != 1 || p[0] != sw[2] {
		t.Errorf("self path = %v, want [s2]", p)
	}
}

// refShortestPath is ShortestPath as it stood before PathTree: a search
// that stops when it dequeues dst, on a queue that slides forward, with
// the path built reversed and then flipped.
func refShortestPath(g *Graph, src, dst NodeID, dead map[LinkID]bool) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	prev := make([]NodeID, len(g.nodes))
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			break
		}
		for _, p := range g.ports[n] {
			if dead[p.Link] || prev[p.Peer] >= 0 {
				continue
			}
			prev[p.Peer] = n
			queue = append(queue, p.Peer)
		}
	}
	if prev[dst] < 0 {
		return nil
	}
	var rev []NodeID
	for n := dst; n != src; n = prev[n] {
		rev = append(rev, n)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TestPathTreeMatchesShortestPath: a full tree from each source gives
// every destination the path the early-exit search finds, and so does
// ShortestPath, with and without dead links.
func TestPathTreeMatchesShortestPath(t *testing.T) {
	jelly, err := NewJellyfish(JellyfishConfig{Switches: 12, HostsPerSwitch: 2, NetDegree: 4, Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	bcube, err := NewBCube(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewTwoTierTree(TreeConfig{ToRs: 4, Roots: 2, HostsPerToR: 3, UplinksPerRoot: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{jelly, bcube, tree} {
		dead := map[LinkID]bool{}
		for l := 0; l < g.NumLinks(); l += 5 {
			dead[LinkID(l)] = true
		}
		pt := g.NewPathTree()
		for src := NodeID(0); int(src) < g.NumNodes(); src++ {
			dist := g.BFSDist(src, nil)
			depth := 0
			for _, d := range dist {
				depth = max(depth, d)
			}
			if got := pt.Grow(src); got != depth {
				t.Fatalf("%s: tree of %d has depth %d, BFSDist says %d", g.Name, src, got, depth)
			}
			for dst := NodeID(0); int(dst) < g.NumNodes(); dst++ {
				want := refShortestPath(g, src, dst, nil)
				got, ok := pt.AppendPath(nil, dst)
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d->%d: tree path %v, early-exit search %v", g.Name, src, dst, got, want)
				}
				if got := g.ShortestPath(src, dst, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d->%d: ShortestPath %v, reference %v", g.Name, src, dst, got, want)
				}
				want = refShortestPath(g, src, dst, dead)
				if got := g.ShortestPath(src, dst, dead); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d->%d, dead links: ShortestPath %v, reference %v", g.Name, src, dst, got, want)
				}
			}
		}
	}
	// A path is appended after what buf holds; an unreached node leaves
	// buf as it was.
	g := New("split")
	a, b, c := g.AddSwitch("a", TierToR, 0), g.AddSwitch("b", TierToR, 1), g.AddSwitch("c", TierToR, 2)
	g.Connect(a, b, sim.Gbps, 0)
	pt := g.NewPathTree()
	pt.Grow(a)
	buf := []NodeID{c}
	if buf, ok := pt.AppendPath(buf, b); !ok || !reflect.DeepEqual(buf, []NodeID{c, a, b}) {
		t.Errorf("AppendPath onto [c] = %v, %v; want [c a b], true", buf, ok)
	}
	if got, ok := pt.AppendPath(buf, c); ok || len(got) != 1 {
		t.Errorf("AppendPath to an unreached node = %v, %v; want [c], false", got, ok)
	}
	if n := testing.AllocsPerRun(100, func() { g.ShortestPath(a, b, nil) }); n > 2 {
		t.Errorf("ShortestPath makes %v allocations, want its scratch and its path", n)
	}
}

func TestEdgeDisjointPathsRing(t *testing.T) {
	// A ring of 5 switches has exactly 2 edge-disjoint paths between any
	// pair.
	g := New("ring")
	var sw [5]NodeID
	for i := range sw {
		sw[i] = g.AddSwitch("s", TierToR, i)
	}
	for i := range sw {
		g.Connect(sw[i], sw[(i+1)%5], sim.Gbps, 0)
	}
	for i := 1; i < 5; i++ {
		if got := g.EdgeDisjointPaths(sw[0], sw[i]); got != 2 {
			t.Errorf("ring diversity s0-s%d = %d, want 2", i, got)
		}
	}
	if got := g.EdgeDisjointPaths(sw[0], sw[0]); got != 0 {
		t.Errorf("self diversity = %d, want 0", got)
	}
}

func TestEdgeDisjointPathsMesh(t *testing.T) {
	// In a full mesh of M switches, diversity between two switches is
	// M-1 (direct + M-2 two-hop paths).
	g, err := NewFullMesh(MeshConfig{Switches: 8, HostsPerSwitch: 0})
	if err != nil {
		t.Fatal(err)
	}
	sw := g.Switches()
	if got := g.EdgeDisjointPaths(sw[0], sw[5]); got != 7 {
		t.Errorf("mesh-8 diversity = %d, want 7", got)
	}
}

// TestMeshPropertyInvariants property-checks mesh construction: for any
// valid (M, n), switch count, host count, link count, and diameter are
// as predicted.
func TestMeshPropertyInvariants(t *testing.T) {
	f := func(m, n uint8) bool {
		M := int(m%20) + 2
		N := int(n % 8)
		g, err := NewFullMesh(MeshConfig{Switches: M, HostsPerSwitch: N})
		if err != nil {
			return false
		}
		wantLinks := M*(M-1)/2 + M*N
		if g.NumLinks() != wantLinks || len(g.Hosts()) != M*N {
			return false
		}
		return g.Diameter(g.Switches()) == 1 && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBCubePropertyInvariants property-checks BCube sizes.
func TestBCubePropertyInvariants(t *testing.T) {
	f := func(nn, kk uint8) bool {
		n := int(nn%4) + 2 // 2..5
		k := int(kk % 3)   // 0..2
		g, err := NewBCube(n, k)
		if err != nil {
			return false
		}
		hosts := 1
		for i := 0; i <= k; i++ {
			hosts *= n
		}
		if len(g.Hosts()) != hosts {
			return false
		}
		if len(g.Switches()) != (k+1)*hosts/n {
			return false
		}
		for _, h := range g.Hosts() {
			if g.Degree(h) != k+1 {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKindTierStrings(t *testing.T) {
	if Host.String() != "host" || Switch.String() != "switch" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind string wrong")
	}
	for tier, want := range map[Tier]string{
		TierNone: "none", TierToR: "tor", TierAgg: "agg", TierCore: "core", Tier(9): "Tier(9)",
	} {
		if tier.String() != want {
			t.Errorf("Tier %d string = %q, want %q", tier, tier.String(), want)
		}
	}
}

// Diameter returns the maximum shortest-path hop count over the given
// node set (typically g.Switches() or g.Hosts()). It returns -1 if any
// pair is disconnected.
func (g *Graph) Diameter(nodes []NodeID) int {
	d := 0
	for _, s := range nodes {
		dist := g.BFSDist(s, nil)
		for _, t := range nodes {
			if dist[t] < 0 {
				return -1
			}
			if dist[t] > d {
				d = dist[t]
			}
		}
	}
	return d
}

// SwitchesInTier returns the switches at the given tier.
func (g *Graph) SwitchesInTier(t Tier) []NodeID {
	var out []NodeID
	for _, s := range g.switches {
		if g.nodes[s].Tier == t {
			out = append(out, s)
		}
	}
	return out
}
