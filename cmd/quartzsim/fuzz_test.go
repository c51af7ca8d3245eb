package main

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/scenario"
)

// FuzzFailSpec feeds arbitrary -fail values to parseFailSpec. A link
// fails only through a fault schedule, and the -fail grammar and the
// document are the only ways to write one: every clause list the
// grammar accepts must, as a document's sim.faults, either decode or be
// rejected by a field under sim.faults — never panic, never fail
// anywhere else.
func FuzzFailSpec(f *testing.F) {
	for _, seed := range []string{
		flag.Lookup("fail").Usage,  // the whole usage text
		"link:3@2ms,repair@10ms",   // its example
		"fiber:0.2@1ms,repair@3ms", // goldenFlags
		"3",                        // the removed -faillink's argument (TestRemovedFlagsRejected)
		"switch:agg0@2ms; link:1@500us,repair@1ns;",
		"link:1@-1ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		events, err := parseFailSpec(spec)
		if err != nil {
			return
		}
		doc, err := json.Marshal(scenario.Doc{Schema: scenario.SchemaV1, Name: "fuzz", Sim: &scenario.SimSpec{
			Topology:   scenario.TopologySpec{Kind: "ring"},
			Workload:   scenario.WorkloadSpec{Kind: "scatter"},
			DurationMS: 10,
			Faults:     &scenario.FaultsSpec{Events: events},
		}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = scenario.Decode(doc, "fuzz.json")
		if err == nil {
			return
		}
		list, ok := err.(scenario.ErrorList)
		if !ok {
			t.Fatalf("-fail %q: Decode failed without naming a field: %v", spec, err)
		}
		for _, e := range list {
			if e.Path != "sim.faults" && !strings.HasPrefix(e.Path, "sim.faults.") {
				t.Errorf("-fail %q: error outside sim.faults: %v", spec, e)
			}
		}
	})
}
