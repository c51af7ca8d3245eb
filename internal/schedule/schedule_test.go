package schedule

import (
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// mesh4 builds a 4-switch mesh with 2 hosts each and a harness.
func mesh4(t testing.TB) (*netsim.Network, *Router, *traffic.Harness, *topology.Graph) {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: 4, HostsPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(g, routing.NewECMP(g))
	h := traffic.NewHarness()
	net, err := netsim.New(netsim.Config{
		Graph:     g,
		Router:    router,
		OnDeliver: h.Deliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, router, h, g
}

func TestRouterPinOverridesPath(t *testing.T) {
	net, router, h, g := mesh4(t)
	hosts := g.Hosts()
	sw := g.Switches()
	src, dst := hosts[0], hosts[2] // racks 0 and 1
	_ = h

	// Default: direct path, 3 hops (sw0, sw1, host).
	var hops int
	net2, err := netsim.New(netsim.Config{
		Graph:     g,
		Router:    router,
		OnDeliver: func(d netsim.Delivery) { hops = d.Packet.Hops },
	})
	if err != nil {
		t.Fatal(err)
	}
	net2.Unicast(7, src, dst, 400, 0)
	net2.Engine().Run()
	if hops != 3 {
		t.Fatalf("default hops = %d, want 3", hops)
	}

	// Pin flow 7 through switch 2: sw0 -> sw2 -> sw1 -> dst.
	if err := router.Pin(7, []topology.NodeID{sw[0], sw[2], sw[1], dst}); err != nil {
		t.Fatal(err)
	}
	net2.Unicast(7, src, dst, 400, 0)
	net2.Engine().Run()
	if hops != 4 {
		t.Errorf("pinned hops = %d, want 4 (detour)", hops)
	}
	_ = net
}

func TestRouterPinValidation(t *testing.T) {
	_, router, _, g := mesh4(t)
	sw := g.Switches()
	if err := router.Pin(1, []topology.NodeID{sw[0]}); err == nil {
		t.Error("short path accepted")
	}
	// sw0 -> host of rack 1: no direct link.
	if err := router.Pin(1, []topology.NodeID{sw[0], g.HostsInRack(1)[0]}); err == nil {
		t.Error("nonexistent link accepted")
	}
	if router.Name() != "scheduled(ecmp)" {
		t.Errorf("Name = %q", router.Name())
	}
}

func TestSchedulerMovesFlowsOffHotPorts(t *testing.T) {
	// Saturate the sw0-sw1 channel with two flows; the scheduler should
	// move at least one of them to a two-hop detour, raising delivered
	// throughput.
	g, err := topology.NewFullMesh(topology.MeshConfig{
		Switches: 4, HostsPerSwitch: 2,
		MeshLink: topology.LinkSpec{Rate: 1 * sim.Gbps},
		HostLink: topology.LinkSpec{Rate: 10 * sim.Gbps},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(withScheduler bool) (delivered uint64, moves int) {
		router := NewRouter(g, routing.NewECMP(g))
		h := traffic.NewHarness()
		net, err := netsim.New(netsim.Config{
			Graph:     g,
			Router:    router,
			OnDeliver: h.Deliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		srcs := g.HostsInRack(0)
		dsts := g.HostsInRack(1)
		rng := rand.New(rand.NewSource(5))
		var flows []FlowInfo
		const end = 10 * sim.Millisecond
		for i := range srcs {
			st := &traffic.Stream{
				Net: net, Src: srcs[i], Dst: dsts[i],
				Flow: routing.FlowID(i + 1), RatePPS: 300e3, Size: 400, Tag: i + 1,
				Rand: rand.New(rand.NewSource(rng.Int63())),
			}
			if err := st.Start(end); err != nil {
				t.Fatal(err)
			}
			flows = append(flows, FlowInfo{Flow: routing.FlowID(i + 1), Src: srcs[i], Dst: dsts[i]})
		}
		var sched *Scheduler
		if withScheduler {
			sched = New(net, router, flows)
			sched.Start(end)
		}
		net.Engine().RunUntil(end + sim.Millisecond)
		if sched != nil {
			moves = sched.Moves()
		}
		return net.Delivered(), moves
	}
	// Two 0.96 Gb/s flows into a 1 Gb/s channel: ~half the packets
	// queue without scheduling (latency) and the port saturates.
	base, _ := run(false)
	scheduled, moves := run(true)
	if moves == 0 {
		t.Fatal("scheduler never moved a flow off the hot port")
	}
	if scheduled < base {
		t.Errorf("scheduled delivered %d < unscheduled %d", scheduled, base)
	}
}

func TestSchedulerNoMovesWhenIdle(t *testing.T) {
	net, router, _, g := mesh4(t)
	hosts := g.Hosts()
	st := &traffic.Stream{
		Net: net, Src: hosts[0], Dst: hosts[7],
		Flow: 1, RatePPS: 1e4, Tag: 1,
		Rand: rand.New(rand.NewSource(1)),
	}
	const end = 5 * sim.Millisecond
	if err := st.Start(end); err != nil {
		t.Fatal(err)
	}
	sched := New(net, router, []FlowInfo{{Flow: 1, Src: hosts[0], Dst: hosts[7]}})
	sched.Start(end)
	net.Engine().RunUntil(end + sim.Millisecond)
	if sched.Moves() != 0 {
		t.Errorf("scheduler moved %d flows on an idle network", sched.Moves())
	}
}
