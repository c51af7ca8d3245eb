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
	// (limited only by the network).
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

// sub is a span that carries traffic in one Fill, at its weight.
type sub struct {
	span
	weight float64
}

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
	// capacity per directed link, and the demand cap per flow (+Inf when
	// the flow has none).
	capacity, demandCap []float64

	// Fill's per-round scratch, sized once.
	live                  []sub
	remaining, linkWeight []float64
	fw                    []float64
	saturated, flowFrozen []bool
}

// Compile checks every flow's paths on g and resolves their hops to
// directed links. Weights are left to Fill.
func Compile(g *topology.Graph, flows []Flow) (*Compiled, error) {
	nl, nf := 2*g.NumLinks(), len(flows)
	nsubs, nhops := 0, 0 // capacities: appends below never reallocate
	for _, f := range flows {
		nsubs += len(f.Subflows)
		for _, sf := range f.Subflows {
			nhops += len(sf.Path)
		}
	}
	// Per-link and per-flow floats and flags in one slab each.
	perLink := make([]float64, 3*nl)
	perFlow := make([]float64, 2*nf)
	flags := make([]bool, nl+nf)
	c := &Compiled{
		subs:       make([]span, 0, nsubs),
		first:      make([]int32, nf+1),
		hops:       make([]int32, 0, nhops),
		capacity:   perLink[:nl:nl],
		remaining:  perLink[nl : 2*nl : 2*nl],
		linkWeight: perLink[2*nl:],
		demandCap:  perFlow[:nf:nf],
		fw:         perFlow[nf:],
		saturated:  flags[:nl:nl],
		flowFrozen: flags[nl:],
		live:       make([]sub, 0, nsubs),
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		c.capacity[2*i] = float64(l.Rate)
		c.capacity[2*i+1] = float64(l.Rate)
	}

	table := newHopTable(g)
	for fi, f := range flows {
		if len(f.Subflows) == 0 {
			return nil, fmt.Errorf("flowsim: flow %d has no subflows", fi)
		}
		c.first[fi] = int32(len(c.subs))
		for si, sf := range f.Subflows {
			if len(sf.Path) < 2 {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d path too short", fi, si)
			}
			if sf.Path[0] != f.Src || sf.Path[len(sf.Path)-1] != f.Dst {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d endpoints do not match flow", fi, si)
			}
			lo := len(c.hops)
			for h := 0; h+1 < len(sf.Path); h++ {
				slot, found := table.find(sf.Path[h], sf.Path[h+1])
				if !found {
					return nil, fmt.Errorf("flow %d subflow %d hop %d: flowsim: no link %d-%d", fi, si, h, sf.Path[h], sf.Path[h+1])
				}
				c.hops = append(c.hops, table.index[slot])
			}
			c.subs = append(c.subs, span{flow: int32(fi), lo: int32(lo), hi: int32(len(c.hops))})
		}
		// Demand-capped flows are modelled by a virtual access link of
		// exactly the demand, shared by the flow's subflows.
		c.demandCap[fi] = math.Inf(1)
		if f.Demand > 0 {
			c.demandCap[fi] = float64(f.Demand)
		}
	}
	c.first[nf] = int32(len(c.subs))
	return c, nil
}

// Fill computes the max-min fair allocation of the compiled flows with
// weights[i] the share of its flow that subflow i (in compile order)
// carries. A weight of zero leaves its subflow out; a flow's weights
// must sum to 1.
func (c *Compiled) Fill(weights []float64) (*Allocation, error) {
	if len(weights) != len(c.subs) {
		return nil, fmt.Errorf("flowsim: %d weights for %d subflows", len(weights), len(c.subs))
	}
	nf := len(c.first) - 1
	subs := c.live[:0]
	for fi := 0; fi < nf; fi++ {
		lo, hi := c.first[fi], c.first[fi+1]
		totalW := 0.0
		for i := lo; i < hi; i++ {
			w := weights[i]
			if !(w >= 0) {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d has weight %v, want >= 0", fi, i-lo, w)
			}
			if w == 0 {
				continue
			}
			totalW += w
			subs = append(subs, sub{c.subs[i], w})
		}
		if math.Abs(totalW-1) > 1e-9 {
			return nil, fmt.Errorf("flowsim: flow %d subflow weights sum to %v, want 1", fi, totalW)
		}
	}

	// Progressive filling on weighted subflows. In each round, compute
	// for every unfrozen subflow the max rate each of its links allows
	// (remaining capacity split by weight among unfrozen subflows), take
	// the global minimum increment, apply it, and freeze saturated
	// subflows. Link weights are recomputed from scratch each round:
	// incremental maintenance leaves floating-point residue on fully
	// frozen links, which can poison the level computation. subs holds
	// the unfrozen subflows in their original order — freezing compacts
	// it in place — so every sum below adds the same operands in the
	// same sequence whatever has frozen before.
	demandCap, hops := c.demandCap, c.hops
	remaining, linkWeight, fw := c.remaining, c.linkWeight, c.fw
	saturated, flowFrozen := c.saturated, c.flowFrozen
	copy(remaining, c.capacity)
	clear(flowFrozen)
	c.markSaturated()
	flowRate := make([]float64, nf)
	for len(subs) > 0 {
		weigh(subs, hops, linkWeight, fw)
		// Fair-share level: the smallest level at which either a link
		// saturates or a flow hits its demand. Already-saturated links
		// are excluded — their subflows freeze below regardless.
		level := math.Inf(1)
		argmin := -1
		for li, w := range linkWeight {
			if w <= 0 || saturated[li] {
				continue
			}
			if l := remaining[li] / w; l < level {
				level, argmin = l, li
			}
		}
		for fi := range flowRate {
			if flowFrozen[fi] || fw[fi] <= 0 {
				continue
			}
			if headroom := demandCap[fi] - flowRate[fi]; headroom/fw[fi] < level {
				level = headroom / fw[fi]
			}
		}
		if math.IsInf(level, 1) {
			break // nothing constrains the remaining subflows
		}
		if level < 0 {
			level = 0
		}
		apply(subs, hops, remaining, flowRate, level)
		c.markSaturated()
		// Freeze demand-satisfied flows and subflows crossing saturated
		// links.
		for fi := range flowRate {
			if !flowFrozen[fi] && flowRate[fi] >= demandCap[fi]-1e-6 {
				flowFrozen[fi] = true
			}
		}
		live := c.freeze(subs)
		if len(live) == len(subs) {
			// Numeric safety valve: force the bottleneck link closed so
			// the loop always terminates. No unfrozen subflow crosses any
			// other saturated link, so this freezes exactly its own.
			if argmin < 0 {
				break
			}
			remaining[argmin] = 0
			saturated[argmin] = true
			live = c.freeze(subs)
		}
		subs = live
	}
	return &Allocation{Rates: flowRate}, nil
}

// weigh and apply are the round's two passes over every hop of every
// live subflow. They stay out of line: inlined into the round loop, whose
// state then outnumbers the registers, their inner loops reload spilled
// values on every hop and BenchmarkAllocate runs about 25 % slower.

// weigh sets linkWeight and fw to the sum of the weights of the subs
// that cross each link and that belong to each flow.
//
//go:noinline
func weigh(subs []sub, hops []int32, linkWeight, fw []float64) {
	clear(linkWeight)
	clear(fw)
	for _, s := range subs {
		fw[s.flow] += s.weight
		for _, l := range hops[s.lo:s.hi] {
			linkWeight[l] += s.weight
		}
	}
}

// apply raises every sub by its weight times level: its flow's rate goes
// up, and every link it crosses has that much less remaining.
//
//go:noinline
func apply(subs []sub, hops []int32, remaining, flowRate []float64, level float64) {
	for _, s := range subs {
		inc := s.weight * level
		flowRate[s.flow] += inc
		for _, l := range hops[s.lo:s.hi] {
			remaining[l] -= inc
		}
	}
}

// markSaturated evaluates saturated[li] once per link after each change
// of remaining, not once per hop that asks.
func (c *Compiled) markSaturated() {
	for li := range c.saturated {
		c.saturated[li] = c.remaining[li] <= 1e-6*c.capacity[li]+1e-9
	}
}

// freeze drops, in order, the subflows of demand-satisfied flows and
// those crossing a saturated link, compacting subs in place.
func (c *Compiled) freeze(subs []sub) []sub {
	live := subs[:0]
	for _, s := range subs {
		done := c.flowFrozen[s.flow]
		for _, l := range c.hops[s.lo:s.hi] {
			if done {
				break
			}
			done = c.saturated[l]
		}
		if !done {
			live = append(live, s)
		}
	}
	return live
}

// Total returns the aggregate allocated rate.
func (a *Allocation) Total() float64 {
	t := 0.0
	for _, r := range a.Rates {
		t += r
	}
	return t
}

// The flow builders below return one Flow per host pair, in pair order.
// Every path is cut from one backing array per call and every subflow
// list from another, each sized once, so a call allocates the same few
// times however many pairs it builds.

// cut appends path to *nodes and returns it as a slice of its own,
// capacity clipped so that no later append can write over a neighbour.
func cut(nodes *[]topology.NodeID, path ...topology.NodeID) []topology.NodeID {
	lo := len(*nodes)
	*nodes = append(*nodes, path...)
	return (*nodes)[lo:len(*nodes):len(*nodes)]
}

// ShortestPathFlows builds one single-subflow Flow per pair along one
// shortest path: the path g.ShortestPath returns. Pairs that share a
// source share one breadth-first tree.
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

// VLBFlows builds one Flow per pair on a full mesh that splits traffic
// between the direct path and two-hop detours through every other
// switch, the §3.4 configuration: directFrac on the direct path and the
// rest spread evenly over the detours. A pair within one rack, or with
// no detour, takes its one path whole.
func VLBFlows(g *topology.Graph, pairs [][2]topology.NodeID, directFrac float64, demand sim.Rate) ([]Flow, error) {
	if directFrac < 0 || directFrac > 1 {
		return nil, fmt.Errorf("flowsim: direct fraction %v out of range", directFrac)
	}
	// A pair has at most a direct path and a detour through each of the
	// other switches.
	detours := max(0, len(g.Switches())-2)
	flows := make([]Flow, len(pairs))
	subs := make([]Subflow, 0, len(pairs)*(1+detours))
	nodes := make([]topology.NodeID, 0, len(pairs)*(4+5*detours))
	mids := make([]topology.NodeID, 0, detours)
	// near marks the neighbours of a pair's source switch (bit 0) and of
	// its destination switch (bit 1): one pass over the two port lists
	// instead of two link searches per candidate detour. Each pair clears
	// the bits it set.
	near := make([]uint8, g.NumNodes())
	for i, p := range pairs {
		src, dst := p[0], p[1]
		sSw, dSw := g.ToRof(src), g.ToRof(dst)
		lo := len(subs)
		if sSw == dSw {
			subs = append(subs, Subflow{Path: cut(&nodes, src, sSw, dst), Weight: 1})
			flows[i] = Flow{Src: src, Dst: dst, Demand: demand, Subflows: subs[lo:len(subs):len(subs)]}
			continue
		}
		for _, q := range g.Ports(sSw) {
			near[q.Peer] |= 1
		}
		for _, q := range g.Ports(dSw) {
			near[q.Peer] |= 2
		}
		mids = mids[:0]
		for _, sw := range g.Switches() {
			if sw != sSw && sw != dSw && near[sw] == 3 {
				mids = append(mids, sw)
			}
		}
		for _, sw := range [2]topology.NodeID{sSw, dSw} {
			for _, q := range g.Ports(sw) {
				near[q.Peer] = 0
			}
		}
		direct, detour := vlbSplit(directFrac, len(mids))
		if direct > 0 {
			subs = append(subs, Subflow{Path: cut(&nodes, src, sSw, dSw, dst), Weight: direct})
		}
		if direct < 1 {
			for _, mid := range mids {
				subs = append(subs, Subflow{Path: cut(&nodes, src, sSw, mid, dSw, dst), Weight: detour})
			}
		}
		flows[i] = Flow{Src: src, Dst: dst, Demand: demand, Subflows: subs[lo:len(subs):len(subs)]}
	}
	return flows, nil
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

// VLBWeights appends to w the weight of every subflow, in order, that
// VLBFlows gives at directFrac, for flows VLBFlows built at a split
// strictly between 0 and 1 (each cross-rack flow then has its direct
// path first and every detour after it). A pair's paths do not depend
// on the split, so one Compile of such flows serves every split: a zero
// weight leaves out the path VLBFlows would not build, and the rest are
// its weights bit for bit.
func VLBWeights(flows []Flow, directFrac float64, w []float64) []float64 {
	for _, f := range flows {
		direct, detour := vlbSplit(directFrac, len(f.Subflows)-1)
		w = append(w, direct)
		for range f.Subflows[1:] {
			w = append(w, detour)
		}
	}
	return w
}
