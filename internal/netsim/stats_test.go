package netsim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

func TestPortStatsCounters(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	net := newNet(t, g, Arista7150, nil)
	for i := 0; i < 10; i++ {
		net.Unicast(routing.FlowID(i), h0, h1, 400, 0)
	}
	net.Engine().Run()
	stats := net.Stats()
	if len(stats) != 2*g.NumLinks() {
		t.Fatalf("stats = %d entries, want %d", len(stats), 2*g.NumLinks())
	}
	// Every link on the h0->h1 path carried 10 packets of 400B in the
	// forward direction, none backward.
	forward, backward := 0, 0
	for _, s := range stats {
		switch {
		case s.Packets == 10 && s.Bytes == 4000:
			forward++
			if s.BusyTime <= 0 {
				t.Errorf("busy port with zero BusyTime: %+v", s)
			}
			if u := s.Utilization(net.Engine().Now()); u <= 0 || u > 1 {
				t.Errorf("utilization = %v, want (0,1]", u)
			}
		case s.Packets == 0:
			backward++
		default:
			t.Errorf("unexpected stats %+v", s)
		}
	}
	if forward != 3 || backward != 3 {
		t.Errorf("forward/backward = %d/%d, want 3/3", forward, backward)
	}
	hot := net.HottestPorts(2)
	if len(hot) != 2 || hot[0].Bytes != 4000 {
		t.Errorf("HottestPorts = %+v", hot)
	}
	if got := net.HottestPorts(100); len(got) != 2*g.NumLinks() {
		t.Errorf("HottestPorts(100) = %d entries", len(got))
	}
}

func TestCutLinkDropsTraffic(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	log := &dropLog{}
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(log)
	// Cut the switch-to-switch link (link 1 in construction order) until
	// 1ms; routes never reconverge around it.
	l, ok := g.FindLink(g.Switches()[0], g.Switches()[1])
	if !ok {
		t.Fatal("no inter-switch link")
	}
	cutLink(t, net, l.ID, sim.Millisecond)
	eng := net.Engine()
	net.Unicast(1, h0, h1, 400, 0)
	eng.RunUntil(sim.Millisecond / 2)
	if net.Delivered() != 0 || net.Dropped() != 1 {
		t.Fatalf("delivered/dropped = %d/%d, want 0/1", net.Delivered(), net.Dropped())
	}
	if len(log.drops) != 1 || !strings.Contains(log.drops[0].Reason(), "down") {
		t.Errorf("drops = %v, want link down", log.drops)
	}
	// Repaired at 1ms: retry.
	eng.RunUntil(sim.Millisecond)
	net.Unicast(2, h0, h1, 400, 0)
	eng.RunUntil(2 * sim.Millisecond)
	if net.Delivered() != 1 {
		t.Errorf("delivered = %d after repair, want 1", net.Delivered())
	}
	for _, bad := range []topology.LinkID{-1, 9999} {
		err := net.Faults().Apply(FaultSchedule{Events: []FaultEvent{{Kind: FaultLink, Link: bad, At: eng.Now()}}})
		if err == nil {
			t.Errorf("bad link id %d accepted", bad)
		}
	}
}

func TestReconvergenceAfterFailure(t *testing.T) {
	// A mesh pair loses its direct link; once routes reconverge on the
	// degraded graph, traffic takes a two-hop detour.
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: 4, HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	sw := g.Switches()
	var hops int
	net, err := New(Config{
		Graph:     g,
		Router:    routing.NewECMP(g),
		OnDeliver: func(d Delivery) { hops = d.Packet.Hops },
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := g.FindLink(sw[0], sw[1])
	if err := net.Faults().Apply(FaultSchedule{
		Events:         []FaultEvent{{Kind: FaultLink, Link: direct.ID}},
		DetectionDelay: 100 * sim.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	net.Engine().RunUntil(100 * sim.Microsecond)
	net.Unicast(1, hosts[0], hosts[1], 400, 0)
	net.Engine().Run()
	if net.Delivered() != 1 {
		t.Fatalf("delivered = %d, want 1 (rerouted)", net.Delivered())
	}
	if hops != 4 { // s0, a third switch, s1, host
		t.Errorf("hops = %d, want 4 (two-hop detour)", hops)
	}
}

// TestConservationProperty: over random meshes and random bursts, every
// injected packet is either delivered or dropped by the time the engine
// drains — none vanish, none duplicate.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, mm, burst uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(mm%5) + 2
		g, err := topology.NewFullMesh(topology.MeshConfig{Switches: m, HostsPerSwitch: 2})
		if err != nil {
			return false
		}
		// Small buffers so some runs drop.
		model := Arista7150
		model.BufferBytes = 4000
		net, err := New(Config{
			Graph:       g,
			Router:      routing.NewECMP(g),
			SwitchModel: func(topology.Node) SwitchModel { return model },
			Host:        HostModel{NICLatency: 0, ForwardLatency: 0, BufferBytes: 4000},
		})
		if err != nil {
			return false
		}
		hosts := g.Hosts()
		sent := uint64(0)
		count := int(burst%40) + 1
		for i := 0; i < count; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			net.Unicast(routing.FlowID(i), src, dst, 400, 0)
			sent++
		}
		net.Engine().Run()
		return net.Delivered()+net.Dropped() == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestStrictPriorityScheduling(t *testing.T) {
	// A low-priority burst fills the port; a high-priority packet
	// injected mid-burst jumps the queue (after the in-flight frame).
	g, h0, h1 := twoHosts(t, 1*sim.Gbps)
	var order []uint8
	net, err := New(Config{
		Graph:     g,
		Router:    routing.NewECMP(g),
		Host:      HostModel{NICLatency: 0, ForwardLatency: 0, BufferBytes: 1 << 20},
		OnDeliver: func(d Delivery) { order = append(order, d.Packet.Priority) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 bulk packets (12 us each at 1G), then one urgent packet 1 us
	// later: it should overtake all but the frame already on the wire.
	for i := 0; i < 10; i++ {
		net.Send(Packet{Flow: 1, Src: h0, Dst: h1, Size: 1500, Priority: 1, Waypoint: NoWaypoint})
	}
	net.Engine().After(sim.Microsecond, func() {
		net.Send(Packet{Flow: 2, Src: h0, Dst: h1, Size: 200, Priority: 0, Waypoint: NoWaypoint})
	})
	net.Engine().Run()
	if len(order) != 11 {
		t.Fatalf("delivered %d, want 11", len(order))
	}
	pos := -1
	for i, pri := range order {
		if pri == 0 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("urgent packet lost")
	}
	if pos > 2 {
		t.Errorf("urgent packet delivered at position %d, want near the front", pos)
	}
}

func TestPriorityClamped(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	net := newNet(t, g, Arista7150, nil)
	net.Send(Packet{Flow: 1, Src: h0, Dst: h1, Size: 400, Priority: 200, Waypoint: NoWaypoint})
	net.Engine().Run()
	if net.Delivered() != 1 {
		t.Errorf("clamped-priority packet not delivered")
	}
}

func TestPriorityDoesNotStarveConservation(t *testing.T) {
	// Mixed-priority load: everything still delivered or dropped.
	g, h0, h1 := twoHosts(t, 1*sim.Gbps)
	net := newNet(t, g, Arista7150, nil)
	for i := 0; i < 200; i++ {
		net.Send(Packet{Flow: routing.FlowID(i), Src: h0, Dst: h1, Size: 400,
			Priority: uint8(i % 2), Waypoint: NoWaypoint})
	}
	net.Engine().Run()
	if net.Delivered()+net.Dropped() != 200 {
		t.Errorf("conservation violated: %d + %d != 200", net.Delivered(), net.Dropped())
	}
}
