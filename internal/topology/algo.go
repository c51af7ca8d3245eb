package topology

// BFSDist returns hop distances from src to every node, with -1 for
// unreachable nodes. dead lists failed links to skip (may be nil).
func (g *Graph) BFSDist(src NodeID, dead map[LinkID]bool) []int {
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	// Each node joins the queue at most once, so it is sized once.
	queue := make([]NodeID, 1, len(g.nodes))
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		n := queue[head]
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

// AllShortestNextHopsAvoiding computes, for every node, the set of
// next-hop ports on some shortest path toward dst with the dead links
// removed — ECMP's routing table. next[n] is nil when n is dst or
// disconnected from dst. The per-node lists are carved out of one
// backing array (counted first, each with its capacity clipped to its
// length), so a table costs three allocations however many nodes it
// covers; callers only read them.
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
