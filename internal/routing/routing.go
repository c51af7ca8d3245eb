// Package routing implements the forwarding strategies the Quartz paper
// evaluates (§3.4): ECMP over equal-cost shortest paths and Valiant load
// balancing (VLB) on full meshes — the two mesh strategies of §3.4 and
// Figure 20.
//
// A Router answers one question for the packet simulator: given the
// switch a packet is at and the packet's flow and destination, which
// output port should carry it? Routers precompute their tables from a
// topology.Graph; reads are goroutine-safe. Both routers also implement
// Rerouter, so they can recompute their tables around a set of
// failed links mid-run — Reroute mutates the router and must not run
// concurrently with NextPort (the packet simulator is single-threaded,
// so this holds naturally inside one simulation).
package routing

import (
	"fmt"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/topology"
)

// FlowID identifies a flow for ECMP hashing: packets of one flow follow
// one path.
type FlowID uint64

// PacketMeta carries the routing-relevant fields of a packet.
type PacketMeta struct {
	Flow FlowID
	// Seq is the packet's unique sequence number; per-packet ECMP
	// spraying hashes it together with Flow.
	Seq uint64
	// Hash is the flow's routing hash, PacketHash(Flow), computed once
	// when the packet is injected and carried hop to hop — the routers
	// fold it with the node ID per hop instead of re-running the full
	// mixer. Zero means "not cached"; routers fall back to computing it.
	Hash uint64
	Src  topology.NodeID
	Dst  topology.NodeID
	// Waypoint, if >= 0, is a VLB intermediate switch the packet must
	// visit before heading to Dst. The router clears it (conceptually)
	// once the packet reaches the waypoint; the simulator stores it.
	Waypoint topology.NodeID
}

// Router selects output ports.
type Router interface {
	// NextPort returns the port on which node n should forward the
	// packet. Reaching the destination host is included: when n is the
	// destination's ToR, the returned port is the host link. It returns
	// an error if no route exists.
	NextPort(n topology.NodeID, pkt PacketMeta) (topology.Port, error)
	// Name identifies the strategy in reports.
	Name() string
}

// Rerouter is implemented by routers that can recompute their tables
// around a set of failed links mid-run — the control-plane reconvergence
// step after failure detection. Reroute replaces any previously-avoided
// link set (it does not accumulate): pass the complete set of currently
// dead links each time, and an empty or nil map to restore full routes.
//
// Reroute copies dead; later mutations by the caller have no effect.
// It mutates the router in place, so it must not race with NextPort —
// inside a single-threaded simulation this holds naturally.
type Rerouter interface {
	Router
	Reroute(dead map[topology.LinkID]bool)
}

// PacketHash runs the full 64-bit splitmix-style finalizer over a flow
// ID. The packet simulator calls it once per packet at injection and
// caches the result in PacketMeta.Hash; per-hop port selection then
// only folds in the node ID (pickHash) instead of re-mixing from
// scratch at every switch.
func PacketHash(f FlowID) uint64 {
	x := uint64(f)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// pickHash mixes a packet's cached flow hash with a node ID so
// different switches make independent choices. A single
// multiply-xorshift round suffices because the input is already fully
// mixed by PacketHash.
func pickHash(h uint64, n topology.NodeID) uint64 {
	h ^= uint64(n) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// metaHash returns pkt's cached routing hash, computing it on the spot
// for callers (tests, analysis walks) that build PacketMeta by hand.
func metaHash(pkt PacketMeta) uint64 {
	if pkt.Hash != 0 {
		return pkt.Hash
	}
	return PacketHash(pkt.Flow)
}

// linkSet is a set of links, one bit per LinkID: the failed links a
// router's tables are built around. An empty set has no words.
type linkSet []uint64

// reset makes s the links l < n with dead[l] true, reusing its words.
func (s *linkSet) reset(n int, dead map[topology.LinkID]bool) {
	*s = (*s)[:0]
	for l, d := range dead {
		if !d || l < 0 || int(l) >= n {
			continue
		}
		if len(*s) == 0 {
			*s = append(*s, make(linkSet, (n+63)/64)...)
		}
		(*s)[l/64] |= 1 << (l % 64)
	}
}

func (s linkSet) has(l topology.LinkID) bool {
	return int(l/64) < len(s) && s[l/64]&(1<<(l%64)) != 0
}

// distances fills dist with hop counts over the links not in dead: its
// i-th row of g.NumNodes() entries holds every node's distance to
// srcs[i], -1 where there is no path.
func distances(g *topology.Graph, srcs []topology.NodeID, dead linkSet, dist []int32) {
	nn := g.NumNodes()
	queue := make([]topology.NodeID, nn)
	for i, src := range srcs {
		d := dist[i*nn : (i+1)*nn]
		for n := range d {
			d[n] = -1
		}
		d[src], queue[0] = 0, src
		for head, tail := 0, 1; head < tail; head++ {
			n := queue[head]
			for _, p := range g.Ports(n) {
				if d[p.Peer] >= 0 || dead.has(p.Link) {
					continue
				}
				d[p.Peer] = d[n] + 1
				queue[tail] = p.Peer
				tail++
			}
		}
	}
}

// ECMP routes every packet along a shortest path, choosing among
// equal-cost next hops by flow hash. On a full mesh this always selects
// the single direct path (§3.4 of the paper).
type ECMP struct {
	g *topology.Graph
	// dests[h] says how host h is reached, indexed by NodeID.
	dests []dest
	// hops holds every next-hop list in one block. A table has a row per
	// node: node n's shortest-path ports toward the table's target t are
	// hops[off[t·N+n]:off[t·N+n+1]], N = g.NumNodes(). After the tables
	// come the last hops of the single-homed hosts (dest.lo, dest.hi).
	hops []topology.Port
	off  []int32
	// dead is the failed-link set the tables were built around (empty
	// when routing the intact graph).
	dead linkSet
	// perPacket sprays individual packets over the equal-cost set
	// instead of pinning whole flows. The paper's simulator sprays
	// (§7.1 reports no difference between ECMP and VLB on the mesh,
	// and the tree's smooth congestion curves require load spreading
	// finer than per-flow).
	perPacket bool
}

// dest is how ECMP reaches one host. A single-homed host — every link to
// one switch, parallel links included — is routed by its switch's table:
// a shortest path to the host is one to the switch plus a last hop, so
// every node but the switch has the same next hops toward both, in the
// same port order. Any other host (multi-homed, attached to a host, or
// with no link) is a target with a table of its own.
type dest struct {
	// table is the target's table, or -1 when the node is not a host.
	table int32
	// lo and hi bound a single-homed host's last hops in hops: its live
	// links as ports of its switch.
	lo, hi int32
	// via is a single-homed host's switch, -1 for a host that is a target.
	via topology.NodeID
}

// NewECMP precomputes shortest-path next hops toward every host.
// Packets of one flow are pinned to one path.
func NewECMP(g *topology.Graph) *ECMP {
	e := &ECMP{g: g}
	e.rebuild()
	return e
}

// NewECMPPerPacket is NewECMP with per-packet spraying over the
// equal-cost set.
func NewECMPPerPacket(g *topology.Graph) *ECMP {
	e := NewECMP(g)
	e.perPacket = true
	return e
}

// attachment returns the switch every link of host h leads to, or -1 if
// h has no link, a link to a host, or links to two switches.
func attachment(g *topology.Graph, h topology.NodeID) topology.NodeID {
	ports := g.Ports(h)
	if len(ports) == 0 || g.Node(ports[0].Peer).Kind != topology.Switch {
		return -1
	}
	for _, p := range ports[1:] {
		if p.Peer != ports[0].Peer {
			return -1
		}
	}
	return ports[0].Peer
}

// rebuild recomputes the tables from the graph and the current dead-link
// set: one breadth-first search per target, and the block sized once.
func (e *ECMP) rebuild() {
	g, nn := e.g, e.g.NumNodes()
	e.dests = make([]dest, nn)
	tableOf := make([]int32, nn)
	for n := range e.dests {
		e.dests[n] = dest{table: -1, via: -1}
		tableOf[n] = -1
	}
	targets := make([]topology.NodeID, 0, len(g.Hosts()))
	for _, h := range g.Hosts() {
		t := h
		if via := attachment(g, h); via >= 0 {
			t, e.dests[h].via = via, via
		}
		if tableOf[t] < 0 {
			tableOf[t] = int32(len(targets))
			targets = append(targets, t)
		}
		e.dests[h].table = tableOf[t]
	}
	dist := make([]int32, len(targets)*nn)
	distances(g, targets, e.dead, dist)

	// Row i of the tables is node i%nn's toward target i/nn: its live
	// ports one hop nearer, in port order. The block is sized once, from
	// a first pass that writes only the offsets.
	row := func(hops []topology.Port, i int) []topology.Port {
		d, n := dist[i-i%nn:][:nn], topology.NodeID(i%nn)
		if d[n] <= 0 {
			return hops
		}
		for _, p := range g.Ports(n) {
			if d[p.Peer] == d[n]-1 && !e.dead.has(p.Link) {
				hops = append(hops, p)
			}
		}
		return hops
	}
	e.off = make([]int32, len(dist)+1)
	var buf []topology.Port
	for i := range dist {
		buf = row(buf[:0], i)
		e.off[i+1] = e.off[i] + int32(len(buf))
	}
	size := int(e.off[len(dist)])
	for _, h := range g.Hosts() {
		if e.dests[h].via >= 0 {
			size += len(g.Ports(h))
		}
	}
	e.hops = make([]topology.Port, 0, size)
	for i := range dist {
		e.hops = row(e.hops, i)
	}
	// A host's links, seen from its switch, are the switch's ports to it
	// in the same order: Connect appends a link to both ends' lists.
	for _, h := range g.Hosts() {
		dh := &e.dests[h]
		if dh.via < 0 {
			continue
		}
		dh.lo = int32(len(e.hops))
		for _, p := range g.Ports(h) {
			if !e.dead.has(p.Link) {
				e.hops = append(e.hops, topology.Port{Link: p.Link, Peer: h})
			}
		}
		dh.hi = int32(len(e.hops))
	}
}

// Reroute implements Rerouter: recompute shortest paths with the given
// links failed, replacing any previous dead set.
func (e *ECMP) Reroute(dead map[topology.LinkID]bool) {
	e.dead.reset(e.g.NumLinks(), dead)
	e.rebuild()
}

// Name implements Router.
func (e *ECMP) Name() string {
	if e.perPacket {
		return "ecmp-spray"
	}
	return "ecmp"
}

// nextHops returns n's shortest-path ports toward host dst.
func (e *ECMP) nextHops(n, dst topology.NodeID) []topology.Port {
	d := e.dests[dst]
	switch {
	case n == dst:
		return nil
	case n == d.via || d.via >= 0 && d.lo == d.hi:
		// The last hop; or, with every link of the host dead, no route
		// from anywhere.
		return e.hops[d.lo:d.hi]
	}
	i := int(d.table)*len(e.dests) + int(n)
	return e.hops[e.off[i]:e.off[i+1]]
}

// NextPort implements Router.
func (e *ECMP) NextPort(n topology.NodeID, pkt PacketMeta) (topology.Port, error) {
	if pkt.Dst < 0 || int(pkt.Dst) >= len(e.dests) || e.dests[pkt.Dst].table < 0 {
		return topology.Port{}, fmt.Errorf("routing: ecmp: unknown destination %d", pkt.Dst)
	}
	choices := e.nextHops(n, pkt.Dst)
	if len(choices) == 0 {
		return topology.Port{}, fmt.Errorf("routing: ecmp: no route from %d to %d", n, pkt.Dst)
	}
	if len(choices) == 1 {
		return choices[0], nil
	}
	key := metaHash(pkt)
	if e.perPacket {
		key ^= pkt.Seq * 0x9E3779B97F4A7C15
	}
	h, m := pickHash(key, n), uint64(len(choices))
	if m&(m-1) == 0 {
		// Most multi-way choices are among 2 or 4: a mask, not a divide,
		// and the same index.
		return choices[h&(m-1)], nil
	}
	return choices[h%m], nil
}

// VLB implements Valiant load balancing on a full mesh of ToR switches
// (§3.4): a fraction of flows detour through a random intermediate
// switch (two-hop path), the rest use the direct path. The simulator
// assigns waypoints at flow creation with ChooseWaypoint; forwarding
// itself is shortest-path toward the waypoint and then the destination.
type VLB struct {
	// ecmp routes direct paths; its dead set is VLB's.
	ecmp *ECMP
	g    *topology.Graph
	// IndirectFraction is the fraction of flows sent over two-hop paths.
	indirectFraction float64
	switches         []topology.NodeID
	// dist holds hop distances to the switches for waypoint forwarding,
	// a row of g.NumNodes() per switch; row[sw] is switch sw's row, -1
	// for a node that is not a switch.
	dist []int32
	row  []int32
}

// NewVLB builds a VLB router over g (which should be a full mesh of ToR
// switches) detouring the given fraction of flows, 0 <= fraction <= 1.
func NewVLB(g *topology.Graph, indirectFraction float64) (*VLB, error) {
	if indirectFraction < 0 || indirectFraction > 1 {
		return nil, fmt.Errorf("routing: vlb fraction %v out of [0,1]", indirectFraction)
	}
	v := &VLB{
		ecmp:             NewECMP(g),
		g:                g,
		indirectFraction: indirectFraction,
		switches:         g.Switches(),
		dist:             make([]int32, len(g.Switches())*g.NumNodes()),
		row:              make([]int32, g.NumNodes()),
	}
	for n := range v.row {
		v.row[n] = -1
	}
	for i, sw := range v.switches {
		v.row[sw] = int32(i)
	}
	distances(g, v.switches, nil, v.dist)
	return v, nil
}

// Reroute implements Rerouter: both the direct-path ECMP tables and the
// waypoint distance tables are rebuilt around the failed links. The
// dead map is copied.
func (v *VLB) Reroute(dead map[topology.LinkID]bool) {
	v.ecmp.Reroute(dead)
	distances(v.g, v.switches, v.ecmp.dead, v.dist)
}

// Name implements Router.
func (v *VLB) Name() string { return fmt.Sprintf("vlb(%.2f)", v.indirectFraction) }

// ChooseWaypoint picks the VLB intermediate for a new flow from src to
// dst, or -1 for the direct path. rng drives the indirect/direct choice
// and the intermediate selection.
func (v *VLB) ChooseWaypoint(src, dst topology.NodeID, rng *rand.Rand) topology.NodeID {
	if rng.Float64() >= v.indirectFraction {
		return -1
	}
	sSw, dSw := v.g.ToRof(src), v.g.ToRof(dst)
	// Pick a random switch that is neither endpoint's ToR.
	candidates := 0
	for _, sw := range v.switches {
		if sw != sSw && sw != dSw {
			candidates++
		}
	}
	if candidates == 0 {
		return -1
	}
	pick := rng.Intn(candidates)
	for _, sw := range v.switches {
		if sw == sSw || sw == dSw {
			continue
		}
		if pick == 0 {
			return sw
		}
		pick--
	}
	return -1
}

// NextPort implements Router. Packets with a waypoint are routed toward
// the waypoint switch first; the simulator clears the waypoint when the
// packet transits it.
func (v *VLB) NextPort(n topology.NodeID, pkt PacketMeta) (topology.Port, error) {
	if pkt.Waypoint >= 0 && n != pkt.Waypoint {
		// Route toward the waypoint switch along switch links.
		return v.towardSwitch(n, pkt)
	}
	return v.ecmp.NextPort(n, pkt)
}

// towardSwitch forwards along a shortest path to the waypoint switch.
// It selects among the downhill ports by count-then-pick — two cheap
// passes over the port list — instead of materializing a candidate
// slice per hop.
func (v *VLB) towardSwitch(n topology.NodeID, pkt PacketMeta) (topology.Port, error) {
	if pkt.Waypoint < 0 || int(pkt.Waypoint) >= len(v.row) || v.row[pkt.Waypoint] < 0 {
		return topology.Port{}, fmt.Errorf("routing: vlb: waypoint %d is not a switch", pkt.Waypoint)
	}
	nn := len(v.row)
	dist := v.dist[int(v.row[pkt.Waypoint])*nn:][:nn]
	if dist[n] <= 0 {
		return topology.Port{}, fmt.Errorf("routing: vlb: no path from %d to waypoint %d", n, pkt.Waypoint)
	}
	ports := v.g.Ports(n)
	downhill := func(p topology.Port) bool {
		return !v.ecmp.dead.has(p.Link) && dist[p.Peer] == dist[n]-1
	}
	count := 0
	for _, p := range ports {
		if downhill(p) {
			count++
		}
	}
	if count == 0 {
		return topology.Port{}, fmt.Errorf("routing: vlb: stuck at %d toward waypoint %d", n, pkt.Waypoint)
	}
	pick := int(pickHash(metaHash(pkt), n) % uint64(count))
	for _, p := range ports {
		if !downhill(p) {
			continue
		}
		if pick == 0 {
			return p, nil
		}
		pick--
	}
	panic("routing: vlb: unreachable")
}
