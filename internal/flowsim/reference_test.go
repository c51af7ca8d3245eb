package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// refAllocate and refVLBFlow are Allocate and the per-pair VLB builder
// as they stood before the rewrite onto flat storage (pointer-per-subflow,
// a slice of link indices per subflow, a fresh fw per round, a port scan
// per hop, two FindLink calls per candidate detour, fresh arrays for
// every pair). They live only in this test file and the tests below
// demand equal bits, not a tolerance. The one addition is refValveHits,
// which counts entries into the numeric safety valve so that a test can
// show its input reaches it.

var refValveHits int

func refAllocate(g *topology.Graph, flows []Flow) (*Allocation, error) {
	type sub struct {
		flow   int
		links  []int // indices into capacity slice (2*link+dir)
		weight float64
		rate   float64
		frozen bool
	}

	capacity := make([]float64, 2*g.NumLinks())
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		capacity[2*i] = float64(l.Rate)
		capacity[2*i+1] = float64(l.Rate)
	}

	dirIndex := func(from, to topology.NodeID) (int, error) {
		for _, p := range g.Ports(from) {
			if p.Peer == to {
				idx := 2 * int(p.Link)
				if g.Link(p.Link).B == from {
					idx++
				}
				return idx, nil
			}
		}
		return 0, fmt.Errorf("flowsim: no link %d-%d", from, to)
	}

	var subs []*sub
	for fi, f := range flows {
		if len(f.Subflows) == 0 {
			return nil, fmt.Errorf("flowsim: flow %d has no subflows", fi)
		}
		totalW := 0.0
		for si, sf := range f.Subflows {
			if len(sf.Path) < 2 {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d path too short", fi, si)
			}
			if sf.Path[0] != f.Src || sf.Path[len(sf.Path)-1] != f.Dst {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d endpoints do not match flow", fi, si)
			}
			if sf.Weight <= 0 {
				return nil, fmt.Errorf("flowsim: flow %d subflow %d non-positive weight", fi, si)
			}
			totalW += sf.Weight
			s := &sub{flow: fi, weight: sf.Weight}
			for h := 0; h+1 < len(sf.Path); h++ {
				idx, err := dirIndex(sf.Path[h], sf.Path[h+1])
				if err != nil {
					return nil, fmt.Errorf("flow %d subflow %d hop %d: %w", fi, si, h, err)
				}
				s.links = append(s.links, idx)
			}
			subs = append(subs, s)
		}
		if math.Abs(totalW-1) > 1e-9 {
			return nil, fmt.Errorf("flowsim: flow %d subflow weights sum to %v, want 1", fi, totalW)
		}
	}

	// Demand-capped flows are modelled by a virtual access link of
	// exactly the demand, shared by the flow's subflows.
	demandCap := make([]float64, len(flows))
	for fi, f := range flows {
		if f.Demand > 0 {
			demandCap[fi] = float64(f.Demand)
		} else {
			demandCap[fi] = math.Inf(1)
		}
		_ = fi
	}

	// Progressive filling on weighted subflows. In each round, compute
	// for every unfrozen subflow the max rate each of its links allows
	// (remaining capacity split by weight among unfrozen subflows), take
	// the global minimum increment, apply it, and freeze saturated
	// subflows. Link weights are recomputed from scratch each round:
	// incremental maintenance leaves floating-point residue on fully
	// frozen links, which can poison the level computation.
	remaining := append([]float64(nil), capacity...)
	linkWeight := make([]float64, len(capacity))
	saturated := func(li int) bool {
		return remaining[li] <= 1e-6*capacity[li]+1e-9
	}
	flowRate := make([]float64, len(flows))
	flowFrozen := make([]bool, len(flows))

	unfrozen := len(subs)
	for unfrozen > 0 {
		for i := range linkWeight {
			linkWeight[i] = 0
		}
		fw := make([]float64, len(flows))
		for _, s := range subs {
			if s.frozen {
				continue
			}
			fw[s.flow] += s.weight
			for _, l := range s.links {
				linkWeight[l] += s.weight
			}
		}
		// Fair-share level: the smallest level at which either a link
		// saturates or a flow hits its demand. Already-saturated links
		// are excluded — their subflows freeze below regardless.
		level := math.Inf(1)
		argmin := -1
		for li, w := range linkWeight {
			if w <= 0 || saturated(li) {
				continue
			}
			if l := remaining[li] / w; l < level {
				level, argmin = l, li
			}
		}
		for fi := range flows {
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
		// Apply the increment.
		for _, s := range subs {
			if s.frozen {
				continue
			}
			inc := s.weight * level
			s.rate += inc
			flowRate[s.flow] += inc
			for _, l := range s.links {
				remaining[l] -= inc
			}
		}
		// Freeze demand-satisfied flows and subflows crossing saturated
		// links.
		for fi := range flows {
			if !flowFrozen[fi] && flowRate[fi] >= demandCap[fi]-1e-6 {
				flowFrozen[fi] = true
			}
		}
		progressed := false
		for _, s := range subs {
			if s.frozen {
				continue
			}
			done := flowFrozen[s.flow]
			if !done {
				for _, l := range s.links {
					if saturated(l) {
						done = true
						break
					}
				}
			}
			if done {
				s.frozen = true
				unfrozen--
				progressed = true
			}
		}
		if !progressed {
			// Numeric safety valve: force the bottleneck link closed so
			// the loop always terminates.
			refValveHits++
			if argmin < 0 {
				break
			}
			remaining[argmin] = 0
			for _, s := range subs {
				if s.frozen {
					continue
				}
				for _, l := range s.links {
					if l == argmin {
						s.frozen = true
						unfrozen--
						break
					}
				}
			}
		}
	}
	return &Allocation{Rates: flowRate}, nil
}

func refVLBFlow(g *topology.Graph, src, dst topology.NodeID, directFrac float64, demand sim.Rate) (Flow, error) {
	if directFrac < 0 || directFrac > 1 {
		return Flow{}, fmt.Errorf("flowsim: direct fraction %v out of range", directFrac)
	}
	sSw, dSw := g.ToRof(src), g.ToRof(dst)
	f := Flow{Src: src, Dst: dst, Demand: demand}
	if sSw == dSw {
		f.Subflows = []Subflow{{Path: []topology.NodeID{src, sSw, dst}, Weight: 1}}
		return f, nil
	}
	var mids []topology.NodeID
	for _, sw := range g.Switches() {
		if sw == sSw || sw == dSw {
			continue
		}
		if _, ok := g.FindLink(sSw, sw); !ok {
			continue
		}
		if _, ok := g.FindLink(sw, dSw); !ok {
			continue
		}
		mids = append(mids, sw)
	}
	if len(mids) == 0 {
		directFrac = 1
	}
	if directFrac > 0 {
		f.Subflows = append(f.Subflows, Subflow{
			Path:   []topology.NodeID{src, sSw, dSw, dst},
			Weight: directFrac,
		})
	}
	if directFrac < 1 {
		w := (1 - directFrac) / float64(len(mids))
		for _, mid := range mids {
			f.Subflows = append(f.Subflows, Subflow{
				Path:   []topology.NodeID{src, sSw, mid, dSw, dst},
				Weight: w,
			})
		}
	}
	return f, nil
}

// VLBFlows builds the flows CompileVLB compiles, for one split: one Flow
// per pair on a full mesh that splits traffic between the direct path and
// two-hop detours through every other switch, directFrac on the direct
// path and the rest spread evenly over the detours. A pair within one
// rack, or with no detour, takes its one path whole. It is the per-split
// builder the equality tests hold CompileVLB and VLBWeights to: every
// path is cut from one backing array and every subflow list from another.
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

// cut appends path to *nodes and returns it as a slice of its own,
// capacity clipped so that no later append can write over a neighbour.
func cut(nodes *[]topology.NodeID, path ...topology.NodeID) []topology.NodeID {
	lo := len(*nodes)
	*nodes = append(*nodes, path...)
	return (*nodes)[lo:len(*nodes):len(*nodes)]
}

// permutation pairs every host with the host a random permutation maps
// it to, skipping fixed points.
func permutation(hosts []topology.NodeID, rng *rand.Rand) [][2]topology.NodeID {
	var out [][2]topology.NodeID
	for i, j := range rng.Perm(len(hosts)) {
		if i != j {
			out = append(out, [2]topology.NodeID{hosts[i], hosts[j]})
		}
	}
	return out
}

func mesh(t testing.TB, switches, hosts int) *topology.Graph {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: switches, HostsPerSwitch: hosts})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refVLBFlows builds one reference flow per pair.
func refVLBFlows(g *topology.Graph, pairs [][2]topology.NodeID, directFrac float64, demand sim.Rate) ([]Flow, error) {
	flows := make([]Flow, 0, len(pairs))
	for _, p := range pairs {
		f, err := refVLBFlow(g, p[0], p[1], directFrac, demand)
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// vlbFlows builds one VLB flow per pair with build (VLBFlows or its
// reference).
func vlbFlows(t testing.TB, g *topology.Graph, pairs [][2]topology.NodeID, directFrac float64,
	build func(*topology.Graph, [][2]topology.NodeID, float64, sim.Rate) ([]Flow, error)) []Flow {
	t.Helper()
	flows, err := build(g, pairs, directFrac, 0)
	if err != nil {
		t.Fatal(err)
	}
	return flows
}

// sameRates fails unless Allocate and the reference agree bit for bit
// on flows.
func sameRates(t *testing.T, name string, g *topology.Graph, flows []Flow) {
	t.Helper()
	want, err := refAllocate(g, flows)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := Allocate(g, flows)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got.Rates) != len(want.Rates) {
		t.Fatalf("%s: %d rates, reference %d", name, len(got.Rates), len(want.Rates))
	}
	for i := range want.Rates {
		if got.Rates[i] != want.Rates[i] {
			t.Errorf("%s: flow %d rate %v, reference %v", name, i, got.Rates[i], want.Rates[i])
			return
		}
	}
}

func TestAllocateMatchesReferenceOnVLB(t *testing.T) {
	// The oversubscription sweep's meshes (64-port switches, hosts
	// scaled by 4), all nine indirect fractions, three seeds.
	for _, m := range []int{5, 9, 17, 33} {
		g := mesh(t, m, (64-(m-1))/4)
		for seed := int64(1); seed <= 3; seed++ {
			pairs := permutation(g.Hosts(), rand.New(rand.NewSource(seed)))
			for frac := 0.0; frac <= 1.0; frac += 0.125 {
				flows := vlbFlows(t, g, pairs, 1-frac, refVLBFlows)
				sameRates(t, fmt.Sprintf("M=%d seed=%d frac=%v", m, seed, frac), g, flows)
			}
		}
	}
}

func TestVLBFlowMatchesReference(t *testing.T) {
	// A full mesh, and a hand-built mesh with three switch links
	// missing so that some candidate detours have only one of their two
	// legs.
	sparse := topology.New("sparse")
	var sw []topology.NodeID
	for i := 0; i < 6; i++ {
		sw = append(sw, sparse.AddSwitch(fmt.Sprintf("s%d", i), topology.TierToR, i))
	}
	for i := range sw {
		for j := i + 1; j < len(sw); j++ {
			if (i+j)%4 != 0 { // drop 0-4, 1-3, 3-5
				sparse.Connect(sw[i], sw[j], 10*sim.Gbps, 0)
			}
		}
	}
	for i, s := range sw {
		for k := 0; k < 2; k++ {
			sparse.Connect(sparse.AddHost(fmt.Sprintf("h%d-%d", i, k), i), s, 10*sim.Gbps, 0)
		}
	}
	for name, g := range map[string]*topology.Graph{"mesh": mesh(t, 9, 2), "sparse": sparse} {
		// Every ordered host pair in one call, so each pair's neighbour
		// marks must be gone before the next pair's.
		var pairs [][2]topology.NodeID
		for _, src := range g.Hosts() {
			for _, dst := range g.Hosts() {
				if src != dst {
					pairs = append(pairs, [2]topology.NodeID{src, dst})
				}
			}
		}
		// CompileVLB compiles exactly what Compile makes of VLBFlows at an
		// interior split: the same error where a direct link is missing,
		// and the same Compiled for the pairs that have one.
		_, werr := Compile(g, vlbFlows(t, g, pairs, 0.5, VLBFlows))
		if _, err := CompileVLB(g, pairs); fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%s: CompileVLB says %v, Compile of VLBFlows %v", name, err, werr)
		}
		var linked [][2]topology.NodeID
		for _, p := range pairs {
			s, d := g.ToRof(p[0]), g.ToRof(p[1])
			if _, ok := g.FindLink(s, d); s == d || ok {
				linked = append(linked, p)
			}
		}
		want, err := Compile(g, vlbFlows(t, g, linked, 0.5, VLBFlows))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := CompileVLB(g, linked); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CompileVLB differs from Compile of VLBFlows (%v)", name, err)
		}
		for _, frac := range []float64{0, 0.125, 0.5, 1} {
			flows, err := VLBFlows(g, pairs, frac, 3*sim.Gbps)
			if err != nil {
				t.Fatal(err)
			}
			if len(flows) != len(pairs) {
				t.Fatalf("%s frac=%v: %d flows for %d pairs", name, frac, len(flows), len(pairs))
			}
			for i, p := range pairs {
				src, dst := p[0], p[1]
				want, err := refVLBFlow(g, src, dst, frac, 3*sim.Gbps)
				if err != nil {
					t.Fatal(err)
				}
				if got := flows[i]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d->%d frac=%v:\n got %+v\nwant %+v", name, src, dst, frac, got, want)
				}
			}
		}
	}
}

func TestAllocateMatchesReferenceOnTrees(t *testing.T) {
	// Single shortest paths on an oversubscribed two-level tree (the
	// Figure 10 fabrics' shape), unbounded and demand-capped.
	g := tree(6, 5, 25*sim.Gbps)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, capped := range []bool{false, true} {
			flows, err := ShortestPathFlows(g, permutation(g.Hosts(), rng), 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range flows {
				if capped && rng.Intn(2) == 0 {
					flows[i].Demand = sim.Rate(1+rng.Intn(9)) * sim.Gbps
				}
			}
			sameRates(t, fmt.Sprintf("tree seed=%d capped=%v", seed, capped), g, flows)
		}
	}
}

func TestAllocateMatchesReferenceOnCappedVLB(t *testing.T) {
	// Demand caps shared by the subflows of multipath flows.
	g := mesh(t, 9, 4)
	rng := rand.New(rand.NewSource(5))
	flows := vlbFlows(t, g, permutation(g.Hosts(), rng), 0.5, VLBFlows)
	for i := range flows {
		if i%3 != 0 {
			flows[i].Demand = sim.Rate(1+rng.Intn(12)) * sim.Gbps / 2
		}
	}
	sameRates(t, "capped VLB", g, flows)
}

func TestAllocateMatchesReferenceThroughSafetyValve(t *testing.T) {
	// Demands near 2^62 bits/s have an ulp of 1024, far above the 1e-6
	// slack of the "demand satisfied" test: a flow whose nine subflow
	// increments sum to an ulp short of its demand never freezes, no
	// link saturates, and the round makes no progress — the valve then
	// closes the bottleneck link.
	g := topology.New("huge")
	a := g.AddSwitch("a", topology.TierToR, 0)
	b := g.AddSwitch("b", topology.TierToR, 1)
	src := g.AddHost("src", 0)
	dst := g.AddHost("dst", 1)
	const huge = sim.Rate(1) << 62
	g.Connect(src, a, huge, 0)
	g.Connect(b, dst, huge, 0)
	var subs []Subflow
	for i := 0; i < 9; i++ {
		mid := g.AddSwitch(fmt.Sprintf("m%d", i), topology.TierToR, 2+i)
		g.Connect(a, mid, huge, 0)
		g.Connect(mid, b, huge, 0)
		subs = append(subs, Subflow{Path: []topology.NodeID{src, a, mid, b, dst}, Weight: 1.0 / 9})
	}
	hit := false
	for d := int64(0); d < 64 && !hit; d++ {
		flows := []Flow{{Src: src, Dst: dst, Subflows: subs, Demand: huge/3 + sim.Rate(d*1025)}}
		before := refValveHits
		sameRates(t, fmt.Sprintf("valve demand+%d", d), g, flows)
		hit = refValveHits > before
	}
	if !hit {
		t.Fatal("no tried demand reached the safety valve; the test no longer covers it")
	}
}
