package core

import (
	"encoding/json"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

func TestFiberCutImpactMatchesPlan(t *testing.T) {
	r, err := NewRing(RingConfig{Switches: 8, HostsPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Total severed pairs across all segments and fibers equals the
	// total channel-link traversals of the plan.
	total := 0
	rings := r.Plan.Rings
	for fiber := 0; fiber < rings; fiber++ {
		for seg := 0; seg < 8; seg++ {
			severed, err := r.FiberCutImpact(fiber, seg)
			if err != nil {
				t.Fatal(err)
			}
			total += len(severed)
		}
	}
	wantTraversals := 0
	for _, a := range r.Plan.Assignments {
		wantTraversals += arcHops(a, 8)
	}
	if total != wantTraversals {
		t.Errorf("severed pair-segments = %d, want %d (sum of arc lengths)", total, wantTraversals)
	}
	// Adjacent pair (0,1): its 1-hop channel must be severed by exactly
	// one segment cut.
	hits := 0
	for fiber := 0; fiber < rings; fiber++ {
		for seg := 0; seg < 8; seg++ {
			severed, _ := r.FiberCutImpact(fiber, seg)
			for _, p := range severed {
				if p == [2]int{0, 1} {
					hits++
				}
			}
		}
	}
	if hits != 1 {
		t.Errorf("pair (0,1) severed by %d cuts, want 1", hits)
	}
	if _, err := r.FiberCutImpact(0, 99); err == nil {
		t.Error("bad segment accepted")
	}
	if _, err := r.FiberCutImpact(99, 0); err == nil {
		t.Error("bad fiber accepted")
	}
}

func TestFiberCutEndToEndReroute(t *testing.T) {
	// The full §3.5 story in one test: plan a ring, cut a fiber, watch
	// direct traffic die, let routes reconverge, watch traffic take
	// two-hop logical paths, then splice the fiber and watch the direct
	// path return.
	r, err := NewRing(RingConfig{Switches: 6, HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := traffic.NewHarness()
	var lastHops int
	net, err := netsim.New(netsim.Config{
		Graph:  r.Graph,
		Router: routing.NewECMP(r.Graph),
		OnDeliver: func(d netsim.Delivery) {
			h.Deliver(d)
			lastHops = d.Packet.Hops
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := r.Graph.Hosts()
	// Find a pair severed by cutting segment 0 of fiber 0.
	severed, err := r.FiberCutImpact(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(severed) == 0 {
		t.Fatal("segment 0 cut severed nothing")
	}
	pair := severed[0]
	src, dst := hosts[pair[0]], hosts[pair[1]]

	const (
		detect = 100 * sim.Microsecond
		splice = sim.Millisecond
	)
	fi, err := r.AttachFaults(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := fi.Apply(netsim.FaultSchedule{
		Events:         []netsim.FaultEvent{{Kind: netsim.FaultFiber, Fiber: 0, Segment: 0, RepairAt: splice}},
		DetectionDelay: detect,
	}); err != nil {
		t.Fatal(err)
	}
	eng := net.Engine()

	// Before detection, direct routing drops on the dead link.
	net.Unicast(1, src, dst, 400, 0)
	eng.RunUntil(detect)
	if net.Delivered() != 0 || net.Dropped() != 1 {
		t.Fatalf("after cut: delivered %d dropped %d, want 0/1", net.Delivered(), net.Dropped())
	}

	// Control plane reconverged: routes avoid every severed link.
	net.Unicast(2, src, dst, 400, 0)
	eng.RunUntil(splice)
	if net.Delivered() != 1 {
		t.Fatalf("after reroute: delivered %d, want 1", net.Delivered())
	}
	if lastHops != 4 {
		t.Errorf("rerouted path hops = %d, want 4 (two-hop logical path)", lastHops)
	}

	// Splice repaired and reconverged: the direct path returns.
	eng.RunUntil(splice + detect)
	net.Unicast(3, src, dst, 400, 0)
	eng.Run()
	if net.Delivered() != 2 {
		t.Fatalf("after restore: delivered %d, want 2", net.Delivered())
	}
	if lastHops != 3 {
		t.Errorf("restored path hops = %d, want 3 (direct)", lastHops)
	}
}

func TestAttachFaultsWrongGraph(t *testing.T) {
	r1, err := NewRing(RingConfig{Switches: 4, HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(RingConfig{Switches: 4, HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(netsim.Config{Graph: r2.Graph, Router: routing.NewECMP(r2.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.AttachFaults(net); err == nil {
		t.Error("faults attached to a network built on a different graph")
	}
}

func TestRingJSONRoundTrip(t *testing.T) {
	r, err := NewRing(RingConfig{Switches: 12, HostsPerSwitch: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back ringJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Switches != 12 || back.HostsPerSwitch != 8 || back.Ports != r.Ports() {
		t.Errorf("round trip: %d switches x %d hosts = %d ports, want 12 x 8 = %d",
			back.Switches, back.HostsPerSwitch, back.Ports, r.Ports())
	}
	if back.Plan == nil || back.Plan.Channels != r.Channels() {
		t.Fatalf("round trip lost the channel plan: %+v", back.Plan)
	}
	if err := back.Plan.Validate(); err != nil {
		t.Errorf("round-tripped plan invalid: %v", err)
	}
	if back.Budget != r.Budget {
		t.Errorf("budget differs: %+v vs %+v", back.Budget, r.Budget)
	}
	if err := validateOptics(r); err != nil {
		t.Error(err)
	}
}
