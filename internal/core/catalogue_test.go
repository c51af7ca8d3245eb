package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/scenario"
)

// TestCatalogue holds core.Designs to what every front end relies on:
// the names, -arch aliases and document pairs of the eight designs;
// each row builds the architecture its Name labels, with as many hosts
// as ArchParams.Hosts counts; exactly the Random rows need an RNG; no
// two rows share a name, an alias or a document pair; and a scenario
// document validates exactly when its topology pair is a row.
func TestCatalogue(t *testing.T) {
	want := map[string]string{ // alias: name, kind/quartz
		"tree3":      "three-tier tree, tree3/none",
		"tree2":      "two-tier tree, tree2/none",
		"ring":       "single Quartz ring, ring/none",
		"core":       "quartz in core, tree3/core",
		"edge":       "quartz in edge, tree3/edge",
		"edgecore":   "quartz in edge and core, tree3/both",
		"jellyfish":  "jellyfish, jellyfish/none",
		"qjellyfish": "quartz in jellyfish, jellyfish/edge",
	}
	if len(core.Designs) != len(want) {
		t.Errorf("%d designs, want the paper's %d", len(core.Designs), len(want))
	}
	sizes := []core.ArchParams{{}, {Pods: 3, ToRsPerPod: 2, HostsPerToR: 3}}
	if got := sizes[0].Hosts(); got != 64 {
		t.Errorf("default ArchParams host count %d, want 64", got)
	}
	seen := map[string]bool{}
	for _, d := range core.Designs {
		if got := fmt.Sprintf("%s, %s/%s", d.Name, d.Kind, d.Quartz); got != want[d.Alias] {
			t.Errorf("-arch %s is %q, want %q", d.Alias, got, want[d.Alias])
		}
		for _, p := range sizes {
			arch, err := d.Build(p, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Errorf("%s at %+v: %v", d.Name, p, err)
				continue
			}
			if arch.Name != d.Name {
				t.Errorf("%s builds an architecture named %q", d.Name, arch.Name)
			}
			if got := len(arch.Graph.Hosts()); got != p.Hosts() {
				t.Errorf("%s at %+v has %d hosts, ArchParams.Hosts says %d", d.Name, p, got, p.Hosts())
			}
		}
		if _, err := d.Build(core.ArchParams{}, nil); (err != nil) != d.Random {
			t.Errorf("%s: building without an RNG gave %v, Random = %v", d.Name, err, d.Random)
		}
		for _, key := range []string{"name " + d.Name, "alias " + d.Alias, "pair " + d.Kind + "/" + d.Quartz} {
			if seen[key] {
				t.Errorf("two designs share the %s", key)
			}
			seen[key] = true
		}
	}
	for _, kind := range []string{"tree2", "tree3", "ring", "jellyfish", "hypercube"} {
		for _, quartz := range []string{"none", "edge", "core", "both", "rim"} {
			_, design := core.FindDesign(func(d core.Design) bool { return d.Kind == kind && d.Quartz == quartz })
			doc := fmt.Sprintf(`{"schema": "quartz-scenario/v1", "name": "c",
				"sim": {"topology": {"kind": %q, "quartz": %q}, "workload": {"kind": "scatter"}}}`, kind, quartz)
			if _, err := scenario.Decode([]byte(doc), "c.json"); (err == nil) != design {
				t.Errorf("%s/%s: a design = %v, but Decode says %v", kind, quartz, design, err)
			}
		}
	}
}
