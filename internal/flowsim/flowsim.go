// Package flowsim allocates bandwidth to flows with progressive
// max-min water-filling, the standard fluid model for steady-state TCP
// fair sharing. The Quartz paper uses this style of simulation to
// compare aggregate throughput against ideal (full-bisection) networks
// (§5.1, Figure 10).
//
// A flow follows one or more fixed paths (multipath flows split across
// subflows, modelling ECMP/VLB). Each directed link has a capacity;
// water-filling repeatedly finds the bottleneck link with the smallest
// per-subflow fair share, freezes the subflows through it, and
// continues until every subflow is frozen.
package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// Subflow is one path of a flow with a share of the flow's traffic.
type Subflow struct {
	// Path is the node sequence from source to destination.
	Path []topology.NodeID
	// Weight is the fraction of the flow carried: the weights of a flow
	// sum to 1, and a zero weight leaves the subflow out.
	Weight float64
}

// Flow is a demand between two hosts.
type Flow struct {
	Src, Dst topology.NodeID
	// Subflows carry the traffic; at least one is required.
	Subflows []Subflow
	// Demand caps the flow's rate in bits/s; 0 means unbounded
	// (limited only by the network), and a negative demand is an error.
	Demand sim.Rate
}

// Allocation reports the outcome for each flow.
type Allocation struct {
	// Rates holds each flow's total achieved rate, in bits/s.
	Rates []float64
}

// hopTable maps a directed hop (from, to) of a graph to its index
// 2*link+dir in Allocate's capacity slice: an open-addressed hash of
// every port, built once per call, in place of a scan of from's ports
// for every hop of every subflow.
type hopTable struct {
	keys  []uint64 // from<<32 | to, plus one so that zero means empty
	index []int32
}

func newHopTable(g *topology.Graph) hopTable {
	size := 2
	for size < 4*g.NumLinks() { // load factor at most 1/2
		size *= 2
	}
	h := hopTable{keys: make([]uint64, size), index: make([]int32, size)}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		// Of parallel links the first wins, as in a scan of the ports.
		for dir, hop := range [2][2]topology.NodeID{{l.A, l.B}, {l.B, l.A}} {
			if slot, found := h.find(hop[0], hop[1]); !found {
				h.keys[slot], h.index[slot] = hopKey(hop[0], hop[1]), int32(2*i+dir)
			}
		}
	}
	return h
}

func hopKey(from, to topology.NodeID) uint64 { return (uint64(from)<<32 | uint64(uint32(to))) + 1 }

// find returns the slot that holds (from, to), or the empty slot where
// it would go.
func (h hopTable) find(from, to topology.NodeID) (slot int, found bool) {
	key := hopKey(from, to)
	slot = int(key*0x9E3779B97F4A7C15>>32) & (len(h.keys) - 1)
	for h.keys[slot] != 0 && h.keys[slot] != key {
		slot = (slot + 1) & (len(h.keys) - 1)
	}
	return slot, h.keys[slot] == key
}

// Allocate computes the max-min fair allocation for flows on g. Every
// subflow's links are checked to exist in g. It is Compile and one Fill
// with the subflows' own weights.
func Allocate(g *topology.Graph, flows []Flow) (*Allocation, error) {
	c, err := Compile(g, flows)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, 0, len(c.subs))
	for _, f := range flows {
		for _, sf := range f.Subflows {
			weights = append(weights, sf.Weight)
		}
	}
	return c.Fill(weights)
}

// span is one subflow of a compiled flow set: its flow, and its directed
// links (indices into the capacity slice) as hops[lo:hi], one arena
// shared by all subflows.
type span struct{ flow, lo, hi int32 }

// Compiled is a flow set whose paths are checked and resolved to link
// indices once. Fill allocates it at one weight per subflow: a flow set
// whose paths stay put while its split changes (adaptive VLB) is compiled
// once and filled per split. Fill reuses the Compiled's scratch, so one
// Compiled serves one goroutine.
type Compiled struct {
	subs []span // every subflow, in flow order
	// first[fi] is the index in subs of flow fi's first subflow.
	first []int32
	hops  []int32
	// at[l] is where directed link l's entries start in entSub and entW:
	// one slot for every hop of every subflow that crosses l.
	at []int32
	// capacity per directed link, and the demand cap per flow (+Inf when
	// the flow has none).
	capacity, demandCap []float64

	// Fill's scratch, sized once. The live subflows that cross link l are
	// entSub[at[l]:][:nEnt[l]], in (subflow, hop) order, each with a copy
	// of its weight in entW; those of flow fi are flowSub[first[fi]:][:nSub[fi]],
	// weights in flowW.
	entSub, flowSub       []int32
	entW, flowW           []float64
	nEnt, nSub            []int32
	remaining, linkWeight []float64
	fw                    []float64
	saturated, frozen     []bool
	// Links and flows with a live subflow, in index order, and those that
	// lost one this round.
	liveLinks, liveFlows   []int32
	dirtyLinks, dirtyFlows []int32
	dirtyLink, dirtyFlow   []bool
}

// take cuts the next n elements off *slab, capacity clipped so that an
// append to the piece cannot write over the next one.
func take[T any](slab *[]T, n int) []T {
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
}

// newCompiled allocates a Compiled on g for nf flows of at most nsubs
// subflows and nhops hops in all, in three slabs and two slices. Every
// demand cap starts at +Inf.
func newCompiled(g *topology.Graph, nf, nsubs, nhops int) *Compiled {
	nl := 2 * g.NumLinks()
	ints := make([]int32, 0, 4*nl+4*nf+2+nsubs+2*nhops)
	floats := make([]float64, 0, 3*nl+2*nf+nsubs+nhops)
	flags := make([]bool, 0, 2*nl+nf+nsubs)
	c := &Compiled{
		subs:       make([]span, 0, nsubs),
		first:      take(&ints, nf+1),
		hops:       take(&ints, nhops)[:0],
		at:         take(&ints, nl+1),
		capacity:   take(&floats, nl),
		demandCap:  take(&floats, nf),
		entSub:     take(&ints, nhops),
		flowSub:    take(&ints, nsubs),
		entW:       take(&floats, nhops),
		flowW:      take(&floats, nsubs),
		nEnt:       take(&ints, nl),
		nSub:       take(&ints, nf),
		remaining:  take(&floats, nl),
		linkWeight: take(&floats, nl),
		fw:         take(&floats, nf),
		saturated:  take(&flags, nl),
		frozen:     take(&flags, nsubs),
		liveLinks:  take(&ints, nl),
		liveFlows:  take(&ints, nf),
		dirtyLinks: take(&ints, nl),
		dirtyFlows: take(&ints, nf),
		dirtyLink:  take(&flags, nl),
		dirtyFlow:  take(&flags, nf),
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		c.capacity[2*i] = float64(l.Rate)
		c.capacity[2*i+1] = float64(l.Rate)
	}
	for fi := range c.demandCap {
		c.demandCap[fi] = math.Inf(1)
	}
	return c
}

// add appends a subflow of flow fi along path, its si-th, resolving each
// hop through table.
func (c *Compiled) add(table hopTable, fi, si int, path ...topology.NodeID) error {
	lo := len(c.hops)
	for h := 0; h+1 < len(path); h++ {
		slot, found := table.find(path[h], path[h+1])
		if !found {
			return fmt.Errorf("flow %d subflow %d hop %d: flowsim: no link %d-%d", fi, si, h, path[h], path[h+1])
		}
		c.hops = append(c.hops, table.index[slot])
	}
	c.subs = append(c.subs, span{flow: int32(fi), lo: int32(lo), hi: int32(len(c.hops))})
	return nil
}

// seal closes the flow list and lays out the link-major entries: at[l] is
// the number of hops on links before l.
func (c *Compiled) seal() {
	c.first[len(c.first)-1] = int32(len(c.subs))
	for _, l := range c.hops {
		c.at[l+1]++
	}
	for l := 1; l < len(c.at); l++ {
		c.at[l] += c.at[l-1]
	}
	c.entSub, c.entW = c.entSub[:len(c.hops)], c.entW[:len(c.hops)]
	c.flowSub, c.flowW = c.flowSub[:len(c.subs)], c.flowW[:len(c.subs)]
	c.frozen = c.frozen[:len(c.subs)]
}

// Compile checks every flow's paths on g and resolves their hops to
// directed links. Weights are left to Fill.
func Compile(g *topology.Graph, flows []Flow) (*Compiled, error) {
	nsubs, nhops := 0, 0
	for _, f := range flows {
		nsubs += len(f.Subflows)
		for _, sf := range f.Subflows {
			nhops += max(0, len(sf.Path)-1)
		}
	}
	c := newCompiled(g, len(flows), nsubs, nhops)
	table := newHopTable(g)
	for fi, f := range flows {
		if len(f.Subflows) == 0 {
			return nil, fmt.Errorf("flowsim: flow %d has no subflows", fi)
		}
		if f.Demand < 0 {
			return nil, fmt.Errorf("flowsim: flow %d has demand %d b/s, want >= 0", fi, int64(f.Demand))
		}
		c.first[fi] = int32(len(c.subs))
		for si, sf := range f.Subflows {
			if len(sf.Path) < 2 {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d path too short", fi, si)
			}
			if sf.Path[0] != f.Src || sf.Path[len(sf.Path)-1] != f.Dst {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d endpoints do not match flow", fi, si)
			}
			if err := c.add(table, fi, si, sf.Path...); err != nil {
				return nil, err
			}
		}
		// Demand-capped flows are modelled by a virtual access link of
		// exactly the demand, shared by the flow's subflows.
		if f.Demand > 0 {
			c.demandCap[fi] = float64(f.Demand)
		}
	}
	c.seal()
	return c, nil
}

// CompileVLB compiles one uncapped flow per pair on a full mesh for the
// §3.4 configuration: the direct path, then a two-hop detour through
// every other switch linked to both ends, in g.Switches() order. A pair
// within one rack has its one path. Fill it at VLBWeights.
func CompileVLB(g *topology.Graph, pairs [][2]topology.NodeID) (*Compiled, error) {
	// A pair has at most a direct path and a detour through each of the
	// other switches.
	detours := max(0, len(g.Switches())-2)
	c := newCompiled(g, len(pairs), len(pairs)*(1+detours), len(pairs)*(3+4*detours))
	table := newHopTable(g)
	// near marks the neighbours of a pair's source switch (bit 0) and of
	// its destination switch (bit 1): one pass over the two port lists
	// instead of two link searches per candidate detour. Each pair clears
	// the bits it set.
	near := make([]uint8, g.NumNodes())
	for fi, p := range pairs {
		src, dst := p[0], p[1]
		sSw, dSw := g.ToRof(src), g.ToRof(dst)
		c.first[fi] = int32(len(c.subs))
		if sSw == dSw {
			if err := c.add(table, fi, 0, src, sSw, dst); err != nil {
				return nil, err
			}
			continue
		}
		if err := c.add(table, fi, 0, src, sSw, dSw, dst); err != nil {
			return nil, err
		}
		for _, q := range g.Ports(sSw) {
			near[q.Peer] |= 1
		}
		for _, q := range g.Ports(dSw) {
			near[q.Peer] |= 2
		}
		for _, mid := range g.Switches() {
			if mid != sSw && mid != dSw && near[mid] == 3 {
				if err := c.add(table, fi, len(c.subs)-int(c.first[fi]), src, sSw, mid, dSw, dst); err != nil {
					return nil, err
				}
			}
		}
		for _, sw := range [2]topology.NodeID{sSw, dSw} {
			for _, q := range g.Ports(sw) {
				near[q.Peer] = 0
			}
		}
	}
	c.seal()
	return c, nil
}

// vlbSplit returns the weight of a pair's direct path and of each of its
// detours when directFrac of its traffic goes direct; a pair with no
// detour sends everything direct.
func vlbSplit(directFrac float64, detours int) (direct, detour float64) {
	if detours == 0 {
		return 1, 0
	}
	return directFrac, (1 - directFrac) / float64(detours)
}

// VLBWeights appends to w the weight of every subflow of a CompileVLB
// set, in order, when directFrac of each cross-rack pair's traffic goes
// direct and the rest is spread evenly over its detours. A zero weight
// leaves a path out, so one compile serves every split.
func (c *Compiled) VLBWeights(directFrac float64, w []float64) []float64 {
	w = slices.Grow(w, len(c.subs))
	for fi := 0; fi+1 < len(c.first); fi++ {
		direct, detour := vlbSplit(directFrac, int(c.first[fi+1]-c.first[fi])-1)
		w = append(w, direct)
		for i := c.first[fi] + 1; i < c.first[fi+1]; i++ {
			w = append(w, detour)
		}
	}
	return w
}

// Fill computes the max-min fair allocation of the compiled flows with
// weights[i] the share of its flow that subflow i (in compile order)
// carries. A weight of zero leaves its subflow out; a flow's weights
// must sum to 1.
//
// Progressive filling on weighted subflows, link by link. Each round
// takes the smallest level at which a live link saturates or a live flow
// meets its demand, lowers every live link's remaining capacity and
// raises every live flow's rate by weight times level, and freezes the
// subflows of the links and flows that this saturated or satisfied. A
// link's (or flow's) live subflows stay in (subflow, hop) order, and its
// weight is re-summed from zero over them only when it loses one: every
// per-link and per-flow sum adds the same operands in the same order as
// a from-scratch pass over the live subflows would, whatever has frozen
// before (incremental subtraction would leave residue on frozen links
// that poisons the level).
func (c *Compiled) Fill(weights []float64) (*Allocation, error) {
	if len(weights) != len(c.subs) {
		return nil, fmt.Errorf("flowsim: %d weights for %d subflows", len(weights), len(c.subs))
	}
	nf := len(c.first) - 1
	subs, hops, at, first := c.subs, c.hops, c.at, c.first
	entSub, entW, flowSub, flowW := c.entSub, c.entW, c.flowSub, c.flowW
	nEnt, nSub := c.nEnt, c.nSub
	remaining, linkWeight, fw := c.remaining, c.linkWeight, c.fw
	capacity, demandCap, saturated := c.capacity, c.demandCap, c.saturated
	copy(remaining, capacity)
	clear(nEnt)
	clear(linkWeight)
	clear(c.frozen)
	clear(c.dirtyLink)
	clear(c.dirtyFlow)
	c.dirtyLinks, c.dirtyFlows = c.dirtyLinks[:0], c.dirtyFlows[:0]
	liveFlows := c.liveFlows[:0]
	for fi := 0; fi < nf; fi++ {
		lo, hi := first[fi], first[fi+1]
		n, totalW := lo, 0.0
		for i := lo; i < hi; i++ {
			w := weights[i]
			if !(w >= 0) {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d has weight %v, want >= 0", fi, i-lo, w)
			}
			if w == 0 {
				continue
			}
			totalW += w
			flowSub[n], flowW[n] = i, w
			n++
			s := subs[i]
			for _, l := range hops[s.lo:s.hi] {
				k := at[l] + nEnt[l]
				entSub[k], entW[k] = i, w
				nEnt[l]++
				linkWeight[l] += w
			}
		}
		if math.Abs(totalW-1) > 1e-9 {
			return nil, fmt.Errorf("flowsim: flow %d subflow weights sum to %v, want 1", fi, totalW)
		}
		nSub[fi], fw[fi] = n-lo, totalW
		liveFlows = append(liveFlows, int32(fi))
	}
	// No link starts saturated: every rate is at least 1 b/s
	// (topology.Connect refuses less), above the saturation slack.
	clear(saturated)
	liveLinks := c.liveLinks[:0]
	for l, k := range nEnt {
		if k > 0 {
			liveLinks = append(liveLinks, int32(l))
		}
	}

	flowRate := make([]float64, nf)
	for {
		// Fair-share level: the smallest level at which either a link
		// saturates or a flow hits its demand. Already-saturated links
		// are excluded — their subflows freeze below regardless. Links and
		// flows that have lost every subflow leave their lists here.
		level := math.Inf(1)
		argmin := int32(-1)
		n := 0
		for _, l := range liveLinks {
			if nEnt[l] == 0 {
				continue
			}
			liveLinks[n] = l
			n++
			if saturated[l] {
				continue
			}
			if x := remaining[l] / linkWeight[l]; x < level {
				level, argmin = x, l
			}
		}
		liveLinks = liveLinks[:n]
		n = 0
		for _, fi := range liveFlows {
			if nSub[fi] == 0 {
				continue
			}
			liveFlows[n] = fi
			n++
			if headroom := demandCap[fi] - flowRate[fi]; headroom/fw[fi] < level {
				level = headroom / fw[fi]
			}
		}
		liveFlows = liveFlows[:n]
		if n == 0 || math.IsInf(level, 1) {
			break // every subflow frozen, or nothing constrains the rest
		}
		if level < 0 {
			level = 0
		}
		advance(remaining, entW, at, nEnt, liveLinks, -level)
		advance(flowRate, flowW, first, nSub, liveFlows, level)
		for _, l := range liveLinks {
			if !saturated[l] && remaining[l] <= 1e-6*capacity[l]+1e-9 {
				saturated[l] = true
				c.drop(entSub[at[l]:][:nEnt[l]])
			}
		}
		for _, fi := range liveFlows {
			if flowRate[fi] >= demandCap[fi]-1e-6 {
				c.drop(flowSub[first[fi]:][:nSub[fi]])
			}
		}
		if len(c.dirtyFlows) == 0 {
			// Numeric safety valve: nothing froze, so force the bottleneck
			// link closed so the loop always terminates.
			if argmin < 0 {
				break
			}
			remaining[argmin] = 0
			saturated[argmin] = true
			c.drop(entSub[at[argmin]:][:nEnt[argmin]])
		}
		c.resum()
	}
	return &Allocation{Rates: flowRate}, nil
}

// advance adds w*step to acc[x], for every live index x, once for each
// entry w of ws[start[x]:][:n[x]], in order: with step -level it lowers
// the remaining capacity of the live links, with step level it raises the
// rates of the live flows (a - b*c and a + b*(-c) are the same bits).
// Each run is one chain of dependent additions, in the order that keeps
// the bits. advance stays out of line: inlined into the round loop, whose
// state then outnumbers the registers, its inner loop keeps its counter
// on the stack and BenchmarkFillSplits runs about 25 % slower at M = 9
// and 17.
//
//go:noinline
func advance(acc, ws []float64, start, n, live []int32, step float64) {
	for _, x := range live {
		a := acc[x]
		for _, w := range ws[start[x] : start[x]+n[x]] {
			a += float64(w * step)
		}
		acc[x] = a
	}
}

// resum compacts the links and flows that lost a subflow this round and
// re-sums their weights.
func (c *Compiled) resum() {
	for _, l := range c.dirtyLinks {
		c.dirtyLink[l] = false
		c.nEnt[l], c.linkWeight[l] = compact(c.entSub[c.at[l]:][:c.nEnt[l]], c.entW[c.at[l]:], c.frozen)
	}
	for _, fi := range c.dirtyFlows {
		c.dirtyFlow[fi] = false
		c.nSub[fi], c.fw[fi] = compact(c.flowSub[c.first[fi]:][:c.nSub[fi]], c.flowW[c.first[fi]:], c.frozen)
	}
	c.dirtyLinks, c.dirtyFlows = c.dirtyLinks[:0], c.dirtyFlows[:0]
}

// drop freezes the subflows in sis that are not yet frozen and marks
// every link and flow they leave for compaction. It is the rare path of
// the round's loops and stays out of line for the same reason as advance.
//
//go:noinline
func (c *Compiled) drop(sis []int32) {
	for _, si := range sis {
		if c.frozen[si] {
			continue
		}
		c.frozen[si] = true
		s := c.subs[si]
		for _, l := range c.hops[s.lo:s.hi] {
			if !c.dirtyLink[l] {
				c.dirtyLink[l] = true
				c.dirtyLinks = append(c.dirtyLinks, l)
			}
		}
		if !c.dirtyFlow[s.flow] {
			c.dirtyFlow[s.flow] = true
			c.dirtyFlows = append(c.dirtyFlows, s.flow)
		}
	}
}

// compact keeps, in order, the entries of sis that are not frozen, with
// their weights in w, and returns how many it kept and their weights'
// sum, added from zero in that order.
func compact(sis []int32, w []float64, frozen []bool) (int32, float64) {
	n, sum := 0, 0.0
	for k, si := range sis {
		if frozen[si] {
			continue
		}
		sis[n], w[n] = si, w[k]
		n++
		sum += w[k]
	}
	return int32(n), sum
}

// Total returns the aggregate allocated rate.
func (a *Allocation) Total() float64 {
	t := 0.0
	for _, r := range a.Rates {
		t += r
	}
	return t
}

// ShortestPathFlows builds one single-subflow Flow per pair, in pair
// order, along one shortest path: the path g.ShortestPath returns. Pairs
// that share a source share one breadth-first tree. Every path is cut
// from one backing array and every subflow list from another, each sized
// once, so a call allocates the same few times however many pairs it
// builds.
func ShortestPathFlows(g *topology.Graph, pairs [][2]topology.NodeID, demand sim.Rate) ([]Flow, error) {
	flows := make([]Flow, len(pairs))
	subs := make([]Subflow, len(pairs))
	// Visit the pairs grouped by source: one search per distinct source.
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(pairs[a][0], pairs[b][0]) })
	tree := g.NewPathTree()
	var nodes []topology.NodeID
	for k, i := range order {
		src, dst := pairs[i][0], pairs[i][1]
		if k == 0 || src != pairs[order[k-1]][0] {
			depth := tree.Grow(src)
			if nodes == nil {
				// Through the first source, no path within its component
				// is longer than twice that tree's depth.
				nodes = make([]topology.NodeID, 0, len(pairs)*(2*depth+1))
			}
		}
		lo := len(nodes)
		var ok bool
		if nodes, ok = tree.AppendPath(nodes, dst); !ok {
			return nil, fmt.Errorf("flowsim: no path %d -> %d", src, dst)
		}
		subs[i] = Subflow{Path: nodes[lo:len(nodes):len(nodes)], Weight: 1}
		flows[i] = Flow{Src: src, Dst: dst, Demand: demand, Subflows: subs[i : i+1 : i+1]}
	}
	return flows, nil
}
