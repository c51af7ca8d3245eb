package topology

import (
	"math"
	"math/rand"
)

// BFSDist returns hop distances from src to every node, with -1 for
// unreachable nodes. dead lists failed links to skip (may be nil).
func (g *Graph) BFSDist(src NodeID, dead map[LinkID]bool) []int {
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range g.ports[n] {
			if dead[p.Link] || dist[p.Peer] >= 0 {
				continue
			}
			dist[p.Peer] = dist[n] + 1
			queue = append(queue, p.Peer)
		}
	}
	return dist
}

// ConnectedComponents returns the number of connected components,
// ignoring the given dead links.
func (g *Graph) ConnectedComponents(dead map[LinkID]bool) int {
	seen := make([]bool, len(g.nodes))
	count := 0
	for start := range g.nodes {
		if seen[start] {
			continue
		}
		count++
		queue := []NodeID{NodeID(start)}
		seen[start] = true
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, p := range g.ports[n] {
				if dead[p.Link] || seen[p.Peer] {
					continue
				}
				seen[p.Peer] = true
				queue = append(queue, p.Peer)
			}
		}
	}
	return count
}

// Connected reports whether all the given nodes are mutually reachable,
// ignoring dead links. An empty or single-node set is connected.
func (g *Graph) Connected(nodes []NodeID, dead map[LinkID]bool) bool {
	if len(nodes) <= 1 {
		return true
	}
	dist := g.BFSDist(nodes[0], dead)
	for _, n := range nodes[1:] {
		if dist[n] < 0 {
			return false
		}
	}
	return true
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

// AvgShortestPath returns the mean shortest-path hop count over ordered
// pairs of distinct nodes from the given set. It returns NaN on an
// empty/singleton set and +Inf if any pair is disconnected.
func (g *Graph) AvgShortestPath(nodes []NodeID) float64 {
	if len(nodes) < 2 {
		return math.NaN()
	}
	sum, pairs := 0, 0
	for _, s := range nodes {
		dist := g.BFSDist(s, nil)
		for _, t := range nodes {
			if t == s {
				continue
			}
			if dist[t] < 0 {
				return math.Inf(1)
			}
			sum += dist[t]
			pairs++
		}
	}
	return float64(sum) / float64(pairs)
}

// ShortestPath returns one shortest path from src to dst as a node
// sequence including both endpoints, or nil if disconnected.
func (g *Graph) ShortestPath(src, dst NodeID, dead map[LinkID]bool) []NodeID {
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

// EdgeDisjointPaths returns the maximum number of edge-disjoint paths
// between src and dst — the path diversity metric of Teixeira et al.
// that Table 9 of the paper uses. It is computed as max-flow with unit
// link capacities (BFS augmenting paths; capacities are small).
func (g *Graph) EdgeDisjointPaths(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	// residual[l] holds remaining capacity in each direction of link l:
	// [0] A->B, [1] B->A.
	residual := make([][2]int, len(g.links))
	for i := range residual {
		residual[i] = [2]int{1, 1}
	}
	dirIdx := func(l Link, from NodeID) int {
		if l.A == from {
			return 0
		}
		return 1
	}
	flow := 0
	for {
		// BFS for an augmenting path in the residual graph.
		type hop struct {
			node NodeID
			link LinkID
		}
		prev := make([]hop, len(g.nodes))
		for i := range prev {
			prev[i] = hop{node: -1, link: -1}
		}
		prev[src] = hop{node: src, link: -1}
		queue := []NodeID{src}
		found := false
		for len(queue) > 0 && !found {
			n := queue[0]
			queue = queue[1:]
			for _, p := range g.ports[n] {
				l := g.links[p.Link]
				if residual[p.Link][dirIdx(l, n)] == 0 || prev[p.Peer].node >= 0 {
					continue
				}
				prev[p.Peer] = hop{node: n, link: p.Link}
				if p.Peer == dst {
					found = true
					break
				}
				queue = append(queue, p.Peer)
			}
		}
		if !found {
			return flow
		}
		// Augment along the path.
		for n := dst; n != src; n = prev[n].node {
			l := g.links[prev[n].link]
			from := prev[n].node
			residual[prev[n].link][dirIdx(l, from)]--
			residual[prev[n].link][1-dirIdx(l, from)]++
		}
		flow++
	}
}

// AllShortestNextHops computes, for every node, the set of next-hop ports
// on some shortest path toward dst. It is the building block for ECMP
// routing tables. next[n] is nil when n is dst or disconnected from dst.
func (g *Graph) AllShortestNextHops(dst NodeID) [][]Port {
	return g.AllShortestNextHopsAvoiding(dst, nil)
}

// AllShortestNextHopsAvoiding is AllShortestNextHops on the graph with
// the given links removed — for routing around failures. The per-node
// lists are carved out of one backing array (counted first, each with
// its capacity clipped to its length), so a table costs three
// allocations however many nodes it covers; callers only read them.
func (g *Graph) AllShortestNextHopsAvoiding(dst NodeID, dead map[LinkID]bool) [][]Port {
	dist := g.BFSDist(dst, dead)
	onPath := func(n int, p Port) bool {
		return !dead[p.Link] && dist[p.Peer] >= 0 && dist[p.Peer] == dist[n]-1
	}
	total := 0
	for n := range g.nodes {
		if dist[n] <= 0 { // dst itself or unreachable
			continue
		}
		for _, p := range g.ports[n] {
			if onPath(n, p) {
				total++
			}
		}
	}
	next := make([][]Port, len(g.nodes))
	backing := make([]Port, 0, total)
	for n := range g.nodes {
		if dist[n] <= 0 {
			continue
		}
		lo := len(backing)
		for _, p := range g.ports[n] {
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

// LinksBetweenSets counts links with one endpoint in each of two disjoint
// node sets — used to measure the capacity of a bisection cut.
func (g *Graph) LinksBetweenSets(setA map[NodeID]bool) int {
	n := 0
	for _, l := range g.links {
		if setA[l.A] != setA[l.B] {
			n++
		}
	}
	return n
}

// EstimateBisection estimates the network's bisection width: the
// minimum, over sampled balanced host bisections, of the number of
// links crossing the cut. Exact bisection is NP-hard; random sampling
// gives an upper bound that is tight for the symmetric topologies in
// this repository. rng drives the sampling; trials bounds the work.
func (g *Graph) EstimateBisection(trials int, rng *rand.Rand) int {
	hosts := g.Hosts()
	if len(hosts) < 2 || trials < 1 || rng == nil {
		return 0
	}
	best := -1
	half := len(hosts) / 2
	idx := make([]int, len(hosts))
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < trials; t++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		setA := make(map[NodeID]bool, half)
		for _, i := range idx[:half] {
			setA[hosts[i]] = true
		}
		// Grow the host set to include each host's ToR when every host
		// of that switch is in A — a simple switch-side assignment that
		// avoids counting host access links for symmetric topologies.
		for _, s := range g.Switches() {
			inA, total := 0, 0
			for _, p := range g.ports[s] {
				if g.nodes[p.Peer].Kind == Host {
					total++
					if setA[p.Peer] {
						inA++
					}
				}
			}
			if total > 0 && inA*2 >= total {
				setA[s] = true
			}
		}
		if cut := g.LinksBetweenSets(setA); best < 0 || cut < best {
			best = cut
		}
	}
	return best
}
