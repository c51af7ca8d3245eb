package topology

import "slices"

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
	// Each node joins the queue once over all components: one queue, and
	// each component's search starts where the last one ended.
	queue := make([]NodeID, 0, len(g.nodes))
	count := 0
	for start := range g.nodes {
		if seen[start] {
			continue
		}
		count++
		seen[start] = true
		head := len(queue)
		queue = append(queue, NodeID(start))
		for ; head < len(queue); head++ {
			n := queue[head]
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

// PathTree is a breadth-first search tree of a graph: every reached
// node's predecessor on one shortest path from the tree's source. A
// node's predecessor is fixed when the search first discovers it, so a
// search that stops at a destination and one that runs to the end give
// that destination the same path. One PathTree serves any number of
// sources in turn; its storage is sized once, for every node.
type PathTree struct {
	g     *Graph
	src   NodeID
	prev  []NodeID // -1 where the search has not reached
	queue []NodeID
}

// NewPathTree returns a tree over g with no source yet; call Grow.
func (g *Graph) NewPathTree() *PathTree {
	t := g.pathTree()
	return &t
}

func (g *Graph) pathTree() PathTree {
	buf := make([]NodeID, 2*len(g.nodes))
	return PathTree{g: g, prev: buf[:len(g.nodes)], queue: buf[len(g.nodes):]}
}

// search makes t the tree of src over the links not in dead (may be
// nil), stopping once dst leaves the queue; dst -1 searches everything
// reachable. It returns the last node it took off the queue.
func (t *PathTree) search(src, dst NodeID, dead map[LinkID]bool) NodeID {
	for i := range t.prev {
		t.prev[i] = -1
	}
	t.src, t.prev[src], t.queue[0] = src, src, src
	head, tail := 0, 1
	for ; head < tail; head++ {
		n := t.queue[head]
		if n == dst {
			break
		}
		for _, p := range t.g.ports[n] {
			if dead[p.Link] || t.prev[p.Peer] >= 0 {
				continue
			}
			t.prev[p.Peer] = n
			t.queue[tail] = p.Peer
			tail++
		}
	}
	return t.queue[min(head, tail-1)]
}

// Grow makes t the tree of src over every link of the graph and returns
// its depth: the hop count of its longest path.
func (t *PathTree) Grow(src NodeID) int {
	return t.hops(t.search(src, -1, nil))
}

// hops returns the number of links on the tree's path to dst, or -1 if
// the tree does not reach dst.
func (t *PathTree) hops(dst NodeID) int {
	if t.prev[dst] < 0 {
		return -1
	}
	h := 0
	for n := dst; n != t.src; n = t.prev[n] {
		h++
	}
	return h
}

// AppendPath appends the tree's path to dst, from its source and with
// both ends included, to buf. It returns buf unchanged and false if the
// tree does not reach dst.
func (t *PathTree) AppendPath(buf []NodeID, dst NodeID) ([]NodeID, bool) {
	h := t.hops(dst)
	if h < 0 {
		return buf, false
	}
	buf = slices.Grow(buf, h+1)[:len(buf)+h+1]
	for i, n := len(buf)-1, dst; i >= len(buf)-1-h; i, n = i-1, t.prev[n] {
		buf[i] = n
	}
	return buf, true
}

// ShortestPath returns one shortest path from src to dst as a node
// sequence including both endpoints, or nil if disconnected.
func (g *Graph) ShortestPath(src, dst NodeID, dead map[LinkID]bool) []NodeID {
	t := g.pathTree()
	t.search(src, dst, dead)
	path, _ := t.AppendPath(nil, dst)
	return path
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
	// One search's scratch, reused by every augmentation: a node joins
	// the queue at most once per search.
	type hop struct {
		node NodeID
		link LinkID
	}
	prev := make([]hop, len(g.nodes))
	queue := make([]NodeID, len(g.nodes))
	flow := 0
	for {
		// BFS for an augmenting path in the residual graph.
		for i := range prev {
			prev[i] = hop{node: -1, link: -1}
		}
		prev[src] = hop{node: src, link: -1}
		queue[0] = src
		found := false
		for head, tail := 0, 1; head < tail && !found; head++ {
			n := queue[head]
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
				queue[tail] = p.Peer
				tail++
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
