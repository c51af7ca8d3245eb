package experiments

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// graphDigest hashes everything a run can observe of g: its name, every
// node's name, kind, tier, rack and port list in order, and every link's
// endpoints, rate and delay in ID order.
func graphDigest(h hash.Hash, g *topology.Graph) {
	fmt.Fprintf(h, "graph %q %d %d\n", g.Name, g.NumNodes(), g.NumLinks())
	for n := topology.NodeID(0); int(n) < g.NumNodes(); n++ {
		nd := g.Node(n)
		fmt.Fprintf(h, "node %d %s %v %v %d", n, g.NodeName(n), nd.Kind, nd.Tier, nd.Rack)
		for _, p := range g.Ports(n) {
			fmt.Fprintf(h, " %d:%d", p.Link, p.Peer)
		}
		fmt.Fprintln(h)
	}
	for l := topology.LinkID(0); int(l) < g.NumLinks(); l++ {
		k := g.Link(l)
		fmt.Fprintf(h, "link %d %d %d %d %d\n", k.ID, k.A, k.B, k.Rate, k.Prop)
	}
}

// TestGraphIdentityPin pins the exact graph of every catalogued design
// (at the default size and one other), of a plain full mesh and of the
// Figure 10, 14 and 20 fabrics: node IDs, names, link order and rates.
// A builder refactor that moves any of them changes a digest here even
// where the goldens' numbers happen to survive.
func TestGraphIdentityPin(t *testing.T) {
	want := map[string]string{
		"core/0-0-0":       "f84af57ecea9b55a7ef1758e",
		"core/3-5-2":       "4aba323d4e20b5705b2d8070",
		"edge/0-0-0":       "10951108526345402f79e9cf",
		"edge/3-5-2":       "c93d706ef78725e8e3744961",
		"edgecore/0-0-0":   "175293aa12a4d73084f8ed87",
		"edgecore/3-5-2":   "c3260dead1759780859bec38",
		"fig10/0.25":       "1aa21ee8ad221ed842da8d1b",
		"fig10/0.50":       "da03b3da9411dba557740dc7",
		"fig10/1.00":       "5e582254a72abe54916a0f46",
		"fig14/false":      "4f1995c8d68e870a2f5be3ee",
		"fig14/true":       "1ae0a429c3926dcde6afcb21",
		"fig20/ring":       "4035453bc2e11530c619f2f7",
		"fig20/star":       "b5fa5596a1e4cb0f8a0d23ad",
		"jellyfish/0-0-0":  "39fe2f02da9f9754083bc574",
		"jellyfish/3-5-2":  "33801b8f7dfa7f11e342716b",
		"mesh/5-3":         "3d66d428c7d9ed52629ed7b4",
		"qjellyfish/0-0-0": "f5bd9faf76d01163475db956",
		"qjellyfish/3-5-2": "c1b4c309e727c9b3987788f6",
		"ring/0-0-0":       "453dd47dee6a6ad12ba6de1b",
		"ring/3-5-2":       "761b01d5914ae39fcf8b0031",
		"tree2/0-0-0":      "53715e7811202982d5eea29e",
		"tree2/3-5-2":      "743aa56abbb9eb081b096a6b",
		"tree3/0-0-0":      "03e0ea686611382ce1d65252",
		"tree3/3-5-2":      "d9d80cfb1b680b6cd63411de",
	}
	got := map[string]string{}
	add := func(name string, fill func(h hash.Hash)) {
		h := sha256.New()
		fill(h)
		got[name] = fmt.Sprintf("%x", h.Sum(nil)[:12])
	}
	for _, p := range []core.ArchParams{{}, {Pods: 3, ToRsPerPod: 5, HostsPerToR: 2}} {
		for _, d := range core.Designs {
			a, err := d.Build(p, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("%s %+v: %v", d.Alias, p, err)
			}
			add(fmt.Sprintf("%s/%d-%d-%d", d.Alias, p.Pods, p.ToRsPerPod, p.HostsPerToR), func(h hash.Hash) {
				fmt.Fprintf(h, "arch %q %T\n", a.Name, a.Router)
				graphDigest(h, a.Graph)
			})
		}
	}
	mesh, err := topology.NewFullMesh(topology.MeshConfig{Switches: 5, HostsPerSwitch: 3})
	if err != nil {
		t.Fatal(err)
	}
	add("mesh/5-3", func(h hash.Hash) { graphDigest(h, mesh) })
	for _, f := range []float64{1, 0.5, 0.25} {
		add(fmt.Sprintf("fig10/%.2f", f), func(h hash.Hash) { graphDigest(h, buildBisectionFabric(f)) })
	}
	for _, quartz := range []bool{false, true} {
		add(fmt.Sprintf("fig14/%v", quartz), func(h hash.Hash) {
			g, hosts := prototype(quartz)
			fmt.Fprintln(h, hosts)
			graphDigest(h, g)
		})
	}
	add("fig20/star", func(h hash.Hash) { graphDigest(h, fig20Star()) })
	ring, err := fig20Ring()
	if err != nil {
		t.Fatal(err)
	}
	add("fig20/ring", func(h hash.Hash) { graphDigest(h, ring) })

	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, want %s", name, d, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not built", name)
		}
	}
}
