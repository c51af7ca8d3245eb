// Package topology models datacenter network topologies as graphs of
// hosts and switches, and provides builders for the network structures the
// Quartz paper analyzes (§4, §5, Table 9): full mesh (the Quartz logical
// topology, §3), 2-tier and 3-tier trees, BCube and Jellyfish.
//
// A Graph is a static description of nodes and links; the packet simulator
// (internal/netsim), routing (internal/routing), flow allocator
// (internal/flowsim), and analysis (internal/analysis) packages all
// consume this representation.
package topology

import (
	"fmt"
	"strconv"

	"github.com/quartz-dcn/quartz/internal/sim"
)

// NodeID identifies a node within one Graph. IDs are dense, starting at 0.
type NodeID int

// LinkID identifies an undirected link within one Graph.
type LinkID int

// Kind distinguishes hosts from switches.
type Kind uint8

// Node kinds.
const (
	Host Kind = iota
	Switch
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Tier classifies a switch's role in a hierarchical network. Hosts have
// TierNone. Flat topologies (mesh, Jellyfish) use TierToR for all
// switches.
type Tier uint8

// Switch tiers.
const (
	TierNone Tier = iota
	TierToR
	TierAgg
	TierCore
)

func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierToR:
		return "tor"
	case TierAgg:
		return "agg"
	case TierCore:
		return "core"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// Node is a host or switch in the topology.
type Node struct {
	ID NodeID
	// Rack groups nodes for locality-aware workloads: a host shares its
	// ToR switch's rack number. -1 means no rack affinity (core tier).
	Rack int
	// The node's name in parts, formatted only by Graph.NodeName: the
	// graph's prefixes[prefix], then idx[:nidx].
	idx    [2]int32
	prefix uint32
	Kind   Kind
	Tier   Tier
	nidx   uint8
}

// Link is an undirected link between two nodes. The packet simulator
// treats it as two independent simplex channels of the same rate.
type Link struct {
	ID   LinkID
	A, B NodeID
	Rate sim.Rate
	// Prop is the one-way propagation delay.
	Prop sim.Time
}

// Other returns the endpoint of l that is not n.
// It panics if n is not an endpoint of l.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("topology: node %d not on link %d (%d-%d)", n, l.ID, l.A, l.B))
}

// Port is one end of a link as seen from a node: the link and the peer.
type Port struct {
	Link LinkID
	Peer NodeID
}

// Graph is a static network topology. Build one with New and the Add*
// methods, or use a builder such as NewFullMesh. Graphs are cheap to share
// read-only; mutation is not goroutine-safe.
type Graph struct {
	// Name describes the topology, e.g. "bcube(n=4,k=1)".
	Name string

	nodes []Node
	links []Link
	// ports[n] lists n's attachments, in the order they were connected.
	// Every list is a stretch of a slab shared by the graph; slab and
	// spare are the unused stretches lists are cut from (see attach).
	ports [][]Port
	slab  []Port
	spare []Port

	hosts    []NodeID
	switches []NodeID
	// prefixes are the distinct name prefixes of the nodes.
	prefixes []string
}

// New returns an empty graph with the given descriptive name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddHost adds a host in the given rack and returns its ID. The host is
// named prefix followed by up to two indices, the second after a '-':
// AddHost("h", 3, 3, 1) adds host h3-1 in rack 3.
func (g *Graph) AddHost(prefix string, rack int, idx ...int) NodeID {
	return g.addNode(Node{Kind: Host, Tier: TierNone, Rack: rack}, prefix, idx)
}

// AddSwitch adds a switch at the given tier and rack (-1 for none) and
// returns its ID. It is named as AddHost names a host.
func (g *Graph) AddSwitch(prefix string, tier Tier, rack int, idx ...int) NodeID {
	return g.addNode(Node{Kind: Switch, Tier: tier, Rack: rack}, prefix, idx)
}

func (g *Graph) addNode(n Node, prefix string, idx []int) NodeID {
	if len(idx) > len(n.idx) {
		panic(fmt.Sprintf("topology: node %q named with %d indices, at most %d", prefix, len(idx), len(n.idx)))
	}
	for i, x := range idx {
		n.idx[i] = int32(x)
	}
	n.nidx = uint8(len(idx))
	// A builder uses a few prefixes, so a search from the latest is short.
	n.prefix = uint32(len(g.prefixes))
	for i := len(g.prefixes) - 1; i >= 0; i-- {
		if g.prefixes[i] == prefix {
			n.prefix = uint32(i)
			break
		}
	}
	if int(n.prefix) == len(g.prefixes) {
		g.prefixes = append(g.prefixes, prefix)
	}
	n.ID = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.ports = append(g.ports, nil)
	if n.Kind == Host {
		g.hosts = append(g.hosts, n.ID)
	} else {
		g.switches = append(g.switches, n.ID)
	}
	return n.ID
}

// Connect links nodes a and b with the given rate and propagation delay
// and returns the link's ID. Self-links are rejected; parallel links are
// allowed (they model link aggregates and multi-fiber trunks).
func (g *Graph) Connect(a, b NodeID, rate sim.Rate, prop sim.Time) LinkID {
	if a == b {
		panic(fmt.Sprintf("topology: self-link on node %d", a))
	}
	if !g.valid(a) || !g.valid(b) {
		panic(fmt.Sprintf("topology: connect %d-%d with unknown node", a, b))
	}
	if rate <= 0 {
		panic(fmt.Sprintf("topology: connect %d-%d with rate %d", a, b, rate))
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, Rate: rate, Prop: prop})
	g.attach(a, Port{Link: id, Peer: b})
	g.attach(b, Port{Link: id, Peer: a})
	return id
}

// Mesh links every pair of sw once at the given rate, in index order:
// sw[0]-sw[1], sw[0]-sw[2], …, sw[1]-sw[2], ….
func (g *Graph) Mesh(sw []NodeID, rate sim.Rate) {
	for i, a := range sw {
		for _, b := range sw[i+1:] {
			g.Connect(a, b, rate, DefaultProp)
		}
	}
}

// AddHosts adds n hosts h<rack>-0 … h<rack>-(n-1) in the given rack and
// links each one to switch sw at the given rate.
func (g *Graph) AddHosts(sw NodeID, rack, n int, rate sim.Rate) {
	for k := 0; k < n; k++ {
		g.Connect(g.AddHost("h", rack, rack, k), sw, rate, DefaultProp)
	}
}

// attach appends p to n's port list. No node has a backing array of its
// own: a full list moves, in order, to a stretch twice its length (one
// port for the first), cut from the front of the spare stretch when it
// is long enough and of the graph's slab otherwise. The stretch a list
// leaves becomes the spare one if it is longer than what the spare has
// left, so a builder that fills one switch after another grows each into
// the stretches the last one outgrew. A slab too short for a stretch is
// replaced by one for half as many ports as the graph has links, which
// keeps slabs few and, with the spares, the bytes below what a backing
// array per node cost.
func (g *Graph) attach(n NodeID, p Port) {
	ps := g.ports[n]
	if len(ps) == cap(ps) {
		c := max(2*len(ps), 1)
		var to []Port
		if len(g.spare) >= c {
			to, g.spare = g.spare[:0:c], g.spare[c:]
		} else {
			if len(g.slab) < c {
				// Appending to nil takes the allocation's whole size class.
				g.slab = append([]Port(nil), make([]Port, max(c, len(g.links)/2))...)
				g.slab = g.slab[:cap(g.slab)]
			}
			to, g.slab = g.slab[:0:c], g.slab[c:]
		}
		if cap(ps) > len(g.spare) {
			g.spare = ps[:cap(ps)]
		}
		ps = append(to, ps...)
	}
	g.ports[n] = append(ps, p)
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// NodeName returns node n's name: the prefix it was added with, then its
// indices, the second after a '-' — "h3-1" for prefix "h" and indices 3
// and 1.
func (g *Graph) NodeName(n NodeID) string {
	nd := g.nodes[n]
	prefix := g.prefixes[nd.prefix]
	if nd.nidx == 0 {
		return prefix
	}
	var buf [48]byte
	b := append(buf[:0], prefix...)
	for i, x := range nd.idx[:nd.nidx] {
		if i > 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Ports returns the ports of node n. The returned slice is owned by the
// graph and must not be modified; a later Connect may reuse its storage.
func (g *Graph) Ports(n NodeID) []Port { return g.ports[n] }

// Degree returns the number of links attached to n.
func (g *Graph) Degree(n NodeID) int { return len(g.ports[n]) }

// Hosts returns the IDs of all hosts, in creation order. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Hosts() []NodeID { return g.hosts }

// Switches returns the IDs of all switches, in creation order. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Switches() []NodeID { return g.switches }

// HostsInRack returns all hosts in the given rack.
func (g *Graph) HostsInRack(rack int) []NodeID {
	var out []NodeID
	for _, h := range g.hosts {
		if g.nodes[h].Rack == rack {
			out = append(out, h)
		}
	}
	return out
}

// ToRof returns the switch a host attaches to. Hosts attached to multiple
// switches (dual-homed) return the first. It panics if h is not a host or
// has no uplink.
func (g *Graph) ToRof(h NodeID) NodeID {
	if g.nodes[h].Kind != Host {
		panic(fmt.Sprintf("topology: ToRof(%d): not a host", h))
	}
	for _, p := range g.ports[h] {
		if g.nodes[p.Peer].Kind == Switch {
			return p.Peer
		}
	}
	panic(fmt.Sprintf("topology: host %d has no switch uplink", h))
}

// FindLink returns a link between a and b, if any.
func (g *Graph) FindLink(a, b NodeID) (Link, bool) {
	for _, p := range g.ports[a] {
		if p.Peer == b {
			return g.links[p.Link], true
		}
	}
	return Link{}, false
}

// CrossRackLinks counts links whose endpoints are in different racks
// (or touch a rackless node). The paper uses this as its wiring
// complexity metric: cables that must leave a rack.
func (g *Graph) CrossRackLinks() int {
	n := 0
	for _, l := range g.links {
		ra, rb := g.nodes[l.A].Rack, g.nodes[l.B].Rack
		if ra != rb || ra == -1 {
			n++
		}
	}
	return n
}

// Validate checks structural invariants: every host has at least one
// link, every node referenced by a link exists, and the graph is
// connected (if it has any nodes).
func (g *Graph) Validate() error {
	for _, h := range g.hosts {
		if len(g.ports[h]) == 0 {
			return fmt.Errorf("topology %q: host %s has no links", g.Name, g.NodeName(h))
		}
	}
	for _, l := range g.links {
		if !g.valid(l.A) || !g.valid(l.B) {
			return fmt.Errorf("topology %q: link %d references unknown node", g.Name, l.ID)
		}
	}
	if len(g.nodes) > 0 {
		if cc := g.ConnectedComponents(nil); cc != 1 {
			return fmt.Errorf("topology %q: %d connected components, want 1", g.Name, cc)
		}
	}
	return nil
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d hosts, %d switches, %d links",
		g.Name, len(g.hosts), len(g.switches), len(g.links))
}
