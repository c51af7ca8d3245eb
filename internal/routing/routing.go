// Package routing implements the forwarding strategies the Quartz paper
// evaluates (§3.4): ECMP over equal-cost shortest paths and Valiant load
// balancing (VLB) on full meshes — the two mesh strategies of §3.4 and
// Figure 20 — plus Yen's k-shortest-paths, which the flow scheduler
// draws its alternatives from.
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
	"sort"

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

// copyDead defensively copies a dead-link set, dropping explicit false
// entries; it returns nil when the effective set is empty so that table
// builders can take their fast no-failures path.
func copyDead(dead map[topology.LinkID]bool) map[topology.LinkID]bool {
	var out map[topology.LinkID]bool
	for l, d := range dead {
		if !d {
			continue
		}
		if out == nil {
			out = make(map[topology.LinkID]bool, len(dead))
		}
		out[l] = true
	}
	return out
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

// ECMP routes every packet along a shortest path, choosing among
// equal-cost next hops by flow hash. On a full mesh this always selects
// the single direct path (§3.4 of the paper).
type ECMP struct {
	g *topology.Graph
	// next[dst][n] lists n's shortest-path ports toward dst — a dense
	// slice indexed by destination NodeID (nil for non-hosts) so the
	// per-hop lookup is two array indexes, no map hashing.
	next [][][]topology.Port
	// dead is the failed-link set the tables were built around (nil
	// when routing the intact graph). Owned by the router: constructors
	// and Reroute copy their argument, so caller mutations after the
	// call have no effect.
	dead map[topology.LinkID]bool
	// perPacket sprays individual packets over the equal-cost set
	// instead of pinning whole flows. The paper's simulator sprays
	// (§7.1 reports no difference between ECMP and VLB on the mesh,
	// and the tree's smooth congestion curves require load spreading
	// finer than per-flow).
	perPacket bool
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

// rebuild recomputes the next-hop tables from the graph and the current
// dead-link set.
func (e *ECMP) rebuild() {
	e.next = make([][][]topology.Port, e.g.NumNodes())
	for _, h := range e.g.Hosts() {
		e.next[h] = e.g.AllShortestNextHopsAvoiding(h, e.dead)
	}
}

// Reroute implements Rerouter: recompute shortest paths with the given
// links failed, replacing any previous dead set.
func (e *ECMP) Reroute(dead map[topology.LinkID]bool) {
	e.dead = copyDead(dead)
	e.rebuild()
}

// Name implements Router.
func (e *ECMP) Name() string {
	if e.perPacket {
		return "ecmp-spray"
	}
	return "ecmp"
}

// NextPort implements Router.
func (e *ECMP) NextPort(n topology.NodeID, pkt PacketMeta) (topology.Port, error) {
	if pkt.Dst < 0 || int(pkt.Dst) >= len(e.next) || e.next[pkt.Dst] == nil {
		return topology.Port{}, fmt.Errorf("routing: ecmp: unknown destination %d", pkt.Dst)
	}
	choices := e.next[pkt.Dst][n]
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
	return choices[pickHash(key, n)%uint64(len(choices))], nil
}

// VLB implements Valiant load balancing on a full mesh of ToR switches
// (§3.4): a fraction of flows detour through a random intermediate
// switch (two-hop path), the rest use the direct path. The simulator
// assigns waypoints at flow creation with ChooseWaypoint; forwarding
// itself is shortest-path toward the waypoint and then the destination.
type VLB struct {
	ecmp *ECMP
	g    *topology.Graph
	// IndirectFraction is the fraction of flows sent over two-hop paths.
	indirectFraction float64
	switches         []topology.NodeID
	// distTo[sw] holds hop distances from every node to switch sw, for
	// waypoint forwarding — dense by switch NodeID, nil for non-switch
	// IDs, so the per-hop lookup stays map-free.
	distTo [][]int
	// dead mirrors the embedded ECMP's failed-link set so waypoint
	// forwarding skips dead parallel links; deadMask is its dense
	// per-LinkID form for the hot path.
	dead     map[topology.LinkID]bool
	deadMask []bool
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
	}
	v.rebuildDist()
	return v, nil
}

// rebuildDist recomputes the per-switch distance tables used for
// waypoint forwarding, honoring the current dead-link set.
func (v *VLB) rebuildDist() {
	v.distTo = make([][]int, v.g.NumNodes())
	for _, sw := range v.switches {
		v.distTo[sw] = v.g.BFSDist(sw, v.dead)
	}
	v.deadMask = make([]bool, v.g.NumLinks())
	for l, d := range v.dead {
		if d && int(l) >= 0 && int(l) < len(v.deadMask) {
			v.deadMask[l] = true
		}
	}
}

// Reroute implements Rerouter: both the direct-path ECMP tables and the
// waypoint distance tables are rebuilt around the failed links. The
// dead map is copied.
func (v *VLB) Reroute(dead map[topology.LinkID]bool) {
	v.dead = copyDead(dead)
	v.ecmp.Reroute(dead)
	v.rebuildDist()
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
	if pkt.Waypoint < 0 || int(pkt.Waypoint) >= len(v.distTo) || v.distTo[pkt.Waypoint] == nil {
		return topology.Port{}, fmt.Errorf("routing: vlb: waypoint %d is not a switch", pkt.Waypoint)
	}
	dist := v.distTo[pkt.Waypoint]
	if dist[n] <= 0 {
		return topology.Port{}, fmt.Errorf("routing: vlb: no path from %d to waypoint %d", n, pkt.Waypoint)
	}
	ports := v.g.Ports(n)
	downhill := func(p topology.Port) bool {
		return !v.deadMask[p.Link] && dist[p.Peer] == dist[n]-1
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

// KShortestPaths returns up to k loop-free shortest paths (by hop count)
// from src to dst using Yen's algorithm. Paths are returned in
// non-decreasing length order.
func KShortestPaths(g *topology.Graph, src, dst topology.NodeID, k int) [][]topology.NodeID {
	if k <= 0 {
		return nil
	}
	first := g.ShortestPath(src, dst, nil)
	if first == nil {
		return nil
	}
	paths := [][]topology.NodeID{first}
	var candidates [][]topology.NodeID
	for len(paths) < k {
		last := paths[len(paths)-1]
		// For each spur node in the previous path...
		for i := 0; i < len(last)-1; i++ {
			spur := last[i]
			rootPath := last[:i+1]
			// Remove links used by previous paths sharing this root.
			dead := make(map[topology.LinkID]bool)
			for _, p := range paths {
				if len(p) > i && equalPath(p[:i+1], rootPath) {
					if l, ok := g.FindLink(p[i], p[i+1]); ok {
						dead[l.ID] = true
						// Parallel links between the same pair count as
						// the same hop for loop-free purposes.
						for _, port := range g.Ports(p[i]) {
							if port.Peer == p[i+1] {
								dead[port.Link] = true
							}
						}
					}
				}
			}
			// Remove root path nodes (except spur) by killing their links.
			for _, n := range rootPath[:len(rootPath)-1] {
				for _, port := range g.Ports(n) {
					dead[port.Link] = true
				}
			}
			spurPath := g.ShortestPath(spur, dst, dead)
			if spurPath == nil {
				continue
			}
			total := append(append([]topology.NodeID{}, rootPath[:len(rootPath)-1]...), spurPath...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool { return len(candidates[i]) < len(candidates[j]) })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func equalPath(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsPath(set [][]topology.NodeID, p []topology.NodeID) bool {
	for _, q := range set {
		if equalPath(q, p) {
			return true
		}
	}
	return false
}
