package flowsim

import (
	"testing"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// FuzzAllocateMatchesReference decodes a small fabric and flow set from
// arbitrary bytes: a full mesh of 3–6 switches with 1–3 hosts each, or a
// two-level tree of 2–6 racks of 1–3 hosts, every link at a rate of its
// own, and 1–12 flows, each along a shortest path or (on a mesh) VLB at
// a dyadic split, some demand-capped. Allocate must give the reference
// kernel's rates bit for bit, and on a mesh, filling CompileVLB's paths
// for the flows' pairs at each dyadic split must give Allocate's rates
// for VLBFlows at that split.
func FuzzAllocateMatchesReference(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 5, 7, 9, 11, 13, 15, 1, 3, 5, 7, 9, 11, 4, 0, 3, 3, 0, 4, 1, 2, 0, 1, 9, 5, 1, 0, 7})
	f.Add([]byte{1, 4, 2, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 11, 0, 1, 3, 2, 0, 6, 4, 1})
	f.Add([]byte{0, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 7, 2, 5, 6, 1, 4, 3, 2, 3, 0, 8, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rate := func() sim.Rate { return sim.Rate(1+next()%16) * sim.Gbps / 2 }
		meshed := next()%2 == 0
		g := topology.New("fuzz")
		if meshed {
			m, n := 3+next()%4, 1+next()%3
			sw := make([]topology.NodeID, m)
			for i := range sw {
				sw[i] = g.AddSwitch("s", topology.TierToR, i)
				for h := 0; h < n; h++ {
					g.Connect(g.AddHost("h", i), sw[i], rate(), 0)
				}
			}
			for i := range sw {
				for j := i + 1; j < m; j++ {
					g.Connect(sw[i], sw[j], rate(), 0)
				}
			}
		} else {
			racks, n := 2+next()%5, 1+next()%3
			core := g.AddSwitch("core", topology.TierCore, -1)
			for r := 0; r < racks; r++ {
				tor := g.AddSwitch("tor", topology.TierToR, r)
				g.Connect(tor, core, rate(), 0)
				for h := 0; h < n; h++ {
					g.Connect(g.AddHost("h", r), tor, rate(), 0)
				}
			}
		}
		hosts := g.Hosts()
		var flows []Flow
		var pairs [][2]topology.NodeID
		for i, n := 0, 1+next()%12; i < n; i++ {
			s := next() % len(hosts)
			pair := [2]topology.NodeID{hosts[s], hosts[(s+1+next()%(len(hosts)-1))%len(hosts)]}
			demand := sim.Rate(0)
			if b := next(); b%3 == 0 {
				demand = sim.Rate(1+b%24) * sim.Gbps / 4
			}
			var built []Flow
			var err error
			if b := next(); meshed && b%2 == 0 {
				built, err = VLBFlows(g, [][2]topology.NodeID{pair}, float64(b/2%9)/8, demand)
			} else {
				built, err = ShortestPathFlows(g, [][2]topology.NodeID{pair}, demand)
			}
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, built...)
			pairs = append(pairs, pair)
		}
		sameRates(t, "flows", g, flows)
		if !meshed {
			return
		}
		c, err := CompileVLB(g, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 8; k++ {
			direct := 1 - float64(k)/8
			got, err := c.Fill(c.VLBWeights(direct, nil))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Allocate(g, vlbFlows(t, g, pairs, direct, VLBFlows))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Rates {
				if got.Rates[i] != want.Rates[i] {
					t.Fatalf("split %d/8 flow %d: fill %v, Allocate %v", k, i, got.Rates[i], want.Rates[i])
				}
			}
		}
	})
}
