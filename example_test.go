package quartz_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"github.com/quartz-dcn/quartz"
)

// ExampleNewRing plans the paper's flagship configuration: a 33-switch
// ring mimicking a 1056-port switch (§3.2).
func ExampleNewRing() {
	ring, err := quartz.NewRing(quartz.RingConfig{Switches: 33, HostsPerSwitch: 32})
	if err != nil {
		panic(err)
	}
	fmt.Println(ring)
	fmt.Printf("wiring: %d fiber cables\n", ring.WiringComplexity())
	// Output:
	// Quartz ring: 33 switches x 32 hosts (1056 ports), 136 channels on 2 fiber ring(s), 34 amplifiers
	// wiring: 66 fiber cables
}

// ExampleOptimalChannels shows the §3.1 channel arithmetic: the proven
// minimum for the paper's ring sizes, and the single-fiber limit.
func ExampleOptimalChannels() {
	fmt.Println(quartz.OptimalChannels(33)) // the paper's 33-switch example
	fmt.Println(quartz.OptimalChannels(35)) // the largest single-fiber ring
	fmt.Println(quartz.MaxRingSize(160))    // ... given 160 channels per fiber
	// Output:
	// 136
	// 153
	// 35
}

// ExampleGreedyChannels runs the paper's greedy heuristic and checks
// the two §3.1 invariants.
func ExampleGreedyChannels() {
	plan := quartz.GreedyChannels(8, rand.New(rand.NewSource(1)))
	fmt.Println(plan.Validate() == nil)
	fmt.Println(plan.Channels >= quartz.OptimalChannels(8))
	// Output:
	// true
	// true
}

// ExamplePlanAmplifiers reproduces the §3.3 worked example: a 24-node
// ring needs one amplifier for every two switches.
func ExamplePlanAmplifiers() {
	budget, err := quartz.PlanAmplifiers(24)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d amplifiers, one per %d switches\n", budget.Amplifiers, budget.AmpAfterHops)
	// Output:
	// 12 amplifiers, one per 2 switches
}

// ExampleRunScenario runs one scenario document — the unit of use of
// every front end (SCENARIOS.md): a four-switch Quartz ring carrying one
// scatter task for a virtual millisecond. The text is deterministic per
// seed, so it can be pinned.
func ExampleRunScenario() {
	out, err := quartz.RunScenario(context.Background(), []byte(`{
		"schema": "quartz-scenario/v1",
		"name": "small-ring",
		"seed": 1,
		"sim": {
			"topology": {"kind": "ring", "pods": 1, "tors_per_pod": 4, "hosts_per_tor": 2},
			"workload": {"kind": "scatter", "tasks": 1, "fanout": 4},
			"duration_ms": 1
		}
	}`))
	if err != nil {
		panic(err)
	}
	fmt.Print(out.Text)
	// Output:
	// single Quartz ring | scatter | 1 task(s), 4 streams each at 20000 pps | 1 ms
	// delivered 77 packets, dropped 0
	// task  1: n=77       mean     2.71us ±0.06  min 2.20  max 3.25
}

// ExampleFindExperiment runs a registry entry by its name.
func ExampleFindExperiment() {
	exp, ok := quartz.FindExperiment("table9")
	if !ok {
		panic("table9 is not in the registry")
	}
	out, err := exp.Run(context.Background(), quartz.Params{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(exp.Section, headline(out))
	// Output:
	// §5 Table 9: network structures with ~1k ports (64-port switches)
}

// ExampleExperiments walks the registry for the entries reproducing §7.1.
func ExampleExperiments() {
	for _, e := range quartz.Experiments() {
		if e.Section == "§7.1" {
			fmt.Println(describe(e))
		}
	}
	// Output:
	// fig17 - Figure 17: global task latency
	// fig18 - Figure 18: localized task latency
}

// describe renders one registry entry.
func describe(e quartz.Experiment) string { return e.Name + " - " + e.Title }

// headline returns the first line of an experiment's rendered text.
func headline(out quartz.Output) string {
	line, _, _ := strings.Cut(out.Text, "\n")
	return line
}

// ExampleFiberCuts shows §3.5's headline: one cut on a 33-switch ring
// loses 136 of its 528 links on average, and never partitions the
// logical mesh.
func ExampleFiberCuts() {
	plan := quartz.GreedyChannels(33, rand.New(rand.NewSource(2)))
	res, err := quartz.FiberCuts(context.Background(), plan, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("loss %.4f, partition %v\n", res.AvgBandwidthLoss, res.PartitionProb)
	// Output:
	// loss 0.2576, partition 0
}
