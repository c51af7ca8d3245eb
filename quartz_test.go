package quartz

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func TestNewRingFacade(t *testing.T) {
	// The paper's flagship configuration: 33 switches x 32 servers
	// mimicking a 1056-port switch (§3.2) on two fiber rings (§3.5).
	ring, err := NewRing(RingConfig{Switches: 33, HostsPerSwitch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Ports() != 1056 {
		t.Errorf("Ports = %d, want 1056", ring.Ports())
	}
	if ring.Plan.Rings != 2 {
		t.Errorf("%d fiber rings, want 2", ring.Plan.Rings)
	}
	if err := ring.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMaxPortsFacade(t *testing.T) {
	ports, m := MaxPortsSingleRing(64)
	if ports != 1056 || m != 33 {
		t.Errorf("MaxPortsSingleRing(64) = %d@%d, want 1056@33", ports, m)
	}
	if MaxRingSize(160) != 35 {
		t.Errorf("MaxRingSize(160) = %d, want 35", MaxRingSize(160))
	}
}

func TestChannelHelpersFacade(t *testing.T) {
	if OptimalChannels(33) != 136 {
		t.Errorf("OptimalChannels(33) = %d, want 136", OptimalChannels(33))
	}
	plan := GreedyChannels(8, rand.New(rand.NewSource(1)))
	if err := plan.Validate(); err != nil {
		t.Error(err)
	}
	if plan.Channels < OptimalChannels(8) {
		t.Errorf("greedy(8) = %d channels, below the optimum %d", plan.Channels, OptimalChannels(8))
	}
}

func TestAmplifierFacade(t *testing.T) {
	budget, err := PlanAmplifiers(24)
	if err != nil {
		t.Fatal(err)
	}
	if budget.Amplifiers != 12 {
		t.Errorf("24-ring amplifiers = %d, want 12 (§3.3)", budget.Amplifiers)
	}
}

func TestFiberCutsFacade(t *testing.T) {
	plan := GreedyChannels(33, rand.New(rand.NewSource(2)))
	res, err := FiberCuts(context.Background(), plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionProb != 0 {
		t.Errorf("single cut partitioned the mesh: %v", res.PartitionProb)
	}
	// A stored plan with 2^40 fiber rings for its one channel is an
	// error, not a process killed out of memory.
	var bad ChannelPlan
	doc := `{"ringSize":4,"channels":1,"physicalRings":1099511627776,"assignments":[{"S":0,"T":1}]}`
	if err := json.Unmarshal([]byte(doc), &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := FiberCuts(context.Background(), &bad, 1); err == nil {
		t.Error("plan with 2^40 idle fiber rings accepted")
	}
}

func TestExperimentEntrypointsFacade(t *testing.T) {
	all := Experiments()
	if len(all) == 0 {
		t.Fatal("empty registry")
	}
	for _, e := range all {
		if got, ok := FindExperiment(e.Name); !ok || got.Title != e.Title {
			t.Errorf("FindExperiment(%q) = %q, %v", e.Name, got.Title, ok)
		}
	}
	if _, ok := FindExperiment("no-such-figure"); ok {
		t.Error("FindExperiment found an unknown name")
	}
	exp, _ := FindExperiment("table9")
	out, err := exp.Run(context.Background(), Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, network := range []string{"2-Tier Tree", "Fat-Tree", "BCube", "Jellyfish", "Mesh"} {
		if !strings.Contains(out.Text, network) {
			t.Errorf("table9 text lacks the %s row:\n%s", network, out.Text)
		}
	}
}
