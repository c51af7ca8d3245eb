package netsim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// twoHosts builds h0 - s0 - s1 - h1 with the given link rate.
func twoHosts(t testing.TB, rate sim.Rate) (*topology.Graph, topology.NodeID, topology.NodeID) {
	t.Helper()
	g := topology.New("pair")
	s0 := g.AddSwitch("s0", topology.TierToR, 0)
	s1 := g.AddSwitch("s1", topology.TierToR, 1)
	h0 := g.AddHost("h0", 0)
	h1 := g.AddHost("h1", 1)
	g.Connect(h0, s0, rate, topology.DefaultProp)
	g.Connect(s0, s1, rate, topology.DefaultProp)
	g.Connect(s1, h1, rate, topology.DefaultProp)
	return g, h0, h1
}

func newNet(t testing.TB, g *topology.Graph, model SwitchModel, onDeliver func(Delivery)) *Network {
	t.Helper()
	net, err := New(Config{
		Graph:       g,
		Router:      routing.NewECMP(g),
		SwitchModel: func(topology.Node) SwitchModel { return model },
		OnDeliver:   onDeliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestZeroLoadLatencyCutThrough(t *testing.T) {
	// One 400-byte packet through two ULL switches at 10 Gb/s.
	// Expected: NIC(0.5us) + ser(320ns) + prop + [CT: 380ns + ser] x2
	// hops' worth of pipeline + prop x3 + NIC(0.5us).
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	var got sim.Time
	net := newNet(t, g, Arista7150, func(d Delivery) { got = d.Latency })
	net.Unicast(1, h0, h1, 400, 0)
	net.Engine().Run()
	if got == 0 {
		t.Fatal("packet not delivered")
	}
	// Exact pipeline: send NIC 500ns; host serializes 320ns; 3 links of
	// 250ns prop. At each CT switch the head exits 380ns after it
	// entered, and the tail follows one serialization later, so each
	// switch adds exactly 380ns to the tail time. Receive NIC 500ns.
	want := 500*sim.Nanosecond + // send NIC
		320*sim.Nanosecond + // first serialization
		3*250*sim.Nanosecond + // propagation
		2*380*sim.Nanosecond + // two cut-through latencies
		500*sim.Nanosecond // receive NIC
	if got != want {
		t.Errorf("latency = %v, want %v", got, want)
	}
}

func TestZeroLoadLatencyStoreAndForward(t *testing.T) {
	// The CCS models its 6us per-frame figure as output-port service
	// time: each store-and-forward hop holds the frame for exactly 6us
	// (which subsumes the wire serialization).
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	var got sim.Time
	net := newNet(t, g, CiscoNexus7000, func(d Delivery) { got = d.Latency })
	net.Unicast(1, h0, h1, 400, 0)
	net.Engine().Run()
	want := 500*sim.Nanosecond +
		320*sim.Nanosecond + // host NIC serialization
		3*250*sim.Nanosecond +
		2*6*sim.Microsecond + // two SF port services
		500*sim.Nanosecond
	if got != want {
		t.Errorf("latency = %v, want %v", got, want)
	}
}

func TestServiceTimePacesThroughput(t *testing.T) {
	// A CCS port sustains one frame per 6us regardless of wire speed:
	// 100 back-to-back frames drain in ~600us.
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	var last sim.Time
	net := newNet(t, g, CiscoNexus7000, func(d Delivery) { last = d.At })
	for i := 0; i < 100; i++ {
		net.Unicast(routing.FlowID(i), h0, h1, 400, 0)
	}
	net.Engine().Run()
	if net.Delivered() != 100 {
		t.Fatalf("delivered %d, want 100", net.Delivered())
	}
	if last < 600*sim.Microsecond || last > 640*sim.Microsecond {
		t.Errorf("last delivery at %v, want ~606us (100 frames x 6us/frame)", last)
	}
}

func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	var ct, sf sim.Time
	netCT := newNet(t, g, Arista7150, func(d Delivery) { ct = d.Latency })
	netCT.Unicast(1, h0, h1, 1500, 0)
	netCT.Engine().Run()
	netSF := newNet(t, g, CiscoNexus7000, func(d Delivery) { sf = d.Latency })
	netSF.Unicast(1, h0, h1, 1500, 0)
	netSF.Engine().Run()
	if ct >= sf {
		t.Errorf("cut-through %v not faster than store-and-forward %v", ct, sf)
	}
	// The gap should be roughly 2*(6us - 380ns) + 2*ser.
	if sf-ct < 10*sim.Microsecond {
		t.Errorf("gap %v suspiciously small", sf-ct)
	}
}

func TestFIFOQueueingDelay(t *testing.T) {
	// Two packets injected back-to-back from the same host: the second
	// waits a full serialization behind the first at the host NIC port.
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	var lat []sim.Time
	net := newNet(t, g, Arista7150, func(d Delivery) { lat = append(lat, d.Latency) })
	net.Unicast(1, h0, h1, 400, 0)
	net.Unicast(2, h0, h1, 400, 0)
	net.Engine().Run()
	if len(lat) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(lat))
	}
	gap := lat[1] - lat[0]
	if gap != 320*sim.Nanosecond {
		t.Errorf("second packet delayed by %v, want one serialization (320ns)", gap)
	}
}

func TestQueueDropsWhenFull(t *testing.T) {
	// Tiny buffers: a burst must overflow the queue.
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	small := Arista7150
	small.BufferBytes = 1000 // fits two 400B packets, not three
	log := &dropLog{}
	net, err := New(Config{
		Graph:       g,
		Router:      routing.NewECMP(g),
		SwitchModel: func(topology.Node) SwitchModel { return small },
		Host:        HostModel{NICLatency: 0, ForwardLatency: 0, BufferBytes: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(log)
	for i := 0; i < 10; i++ {
		net.Unicast(routing.FlowID(i), h0, h1, 400, 0)
	}
	net.Engine().Run()
	if len(log.drops) == 0 {
		t.Error("no drops despite 4000B burst into 1000B buffer")
	}
	if net.Dropped() != uint64(len(log.drops)) {
		t.Errorf("Dropped() = %d, probe saw %d", net.Dropped(), len(log.drops))
	}
	if net.Delivered()+net.Dropped() != 10 {
		t.Errorf("delivered %d + dropped %d != 10", net.Delivered(), net.Dropped())
	}
	if up := net.Stats()[0]; up.From != h0 || up.Drops == 0 {
		t.Errorf("host uplink stats %+v record no drops", up)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	g, h0, _ := twoHosts(t, 10*sim.Gbps)
	var d Delivery
	net := newNet(t, g, Arista7150, func(dd Delivery) { d = dd })
	net.Unicast(1, h0, h0, 400, 7)
	net.Engine().Run()
	if d.Latency != 2*500*sim.Nanosecond {
		t.Errorf("loopback latency = %v, want 1us", d.Latency)
	}
	if d.Packet.Tag != 7 {
		t.Errorf("tag = %d, want 7", d.Packet.Tag)
	}
}

func TestHopCount(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	var hops int
	net := newNet(t, g, Arista7150, func(d Delivery) { hops = d.Packet.Hops })
	net.Unicast(1, h0, h1, 400, 0)
	net.Engine().Run()
	// Two switches + destination host arrival.
	if hops != 3 {
		t.Errorf("hops = %d, want 3", hops)
	}
}

// TestServerForwardingPaysStackLatency pins the forwarding-host branch
// of arrive to the zero-load closed form: a path through S cut-through
// switches and F forwarding hosts (S = F+1 where hosts and switches
// alternate) delivers after both NIC delays, one serialization per host
// that transmits (the source and each forwarder), one propagation per
// link, S switch latencies and F stack delays. It holds on a new network
// and on one Reset after a run.
func TestServerForwardingPaysStackLatency(t *testing.T) {
	const size = 400
	host := HostModel{NICLatency: 500 * sim.Nanosecond, ForwardLatency: 7 * sim.Microsecond, BufferBytes: 1 << 20}
	want := func(g *topology.Graph, forwarders int) sim.Time {
		l := g.Link(0)
		switches := sim.Time(forwarders + 1)
		f := sim.Time(forwarders)
		return 2*host.NICLatency + (f+1)*l.Rate.Serialize(size) + (switches+f+1)*l.Prop +
			switches*Arista7150.Latency + f*host.ForwardLatency
	}
	chain := topology.New("chain")
	h := []topology.NodeID{chain.AddHost("h", 0, 0), chain.AddHost("h", 1, 1), chain.AddHost("h", 2, 2)}
	s := []topology.NodeID{chain.AddSwitch("s", topology.TierToR, 0, 0), chain.AddSwitch("s", topology.TierToR, 1, 1)}
	chain.Connect(h[0], s[0], 10*sim.Gbps, topology.DefaultProp)
	chain.Connect(s[0], h[1], 10*sim.Gbps, topology.DefaultProp)
	chain.Connect(h[1], s[1], 10*sim.Gbps, topology.DefaultProp)
	chain.Connect(s[1], h[2], 10*sim.Gbps, topology.DefaultProp)
	bcube, err := topology.NewBCube(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		src, dst   topology.NodeID
		forwarders int
	}
	type fabric struct {
		name  string
		g     *topology.Graph
		pairs []pair
	}
	// BCube(2,1): hosts 0-3 have two-digit binary addresses; a pair
	// differing in both digits goes through one forwarding host.
	bc := fabric{name: "bcube(2,1)", g: bcube}
	bh := bcube.Hosts()
	for i := range bh {
		for j := range bh {
			if i == j {
				continue
			}
			p := pair{src: bh[i], dst: bh[j]}
			if i^j == 3 {
				p.forwarders = 1
			}
			bc.pairs = append(bc.pairs, p)
		}
	}
	cases := []fabric{
		{"chain", chain, []pair{{h[0], h[2], 1}, {h[2], h[0], 1}, {h[0], h[1], 0}, {h[1], h[2], 0}}},
		bc,
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []sim.Time
			record := func(d Delivery) { got = append(got, d.Latency) }
			net, err := New(Config{Graph: c.g, Router: routing.NewECMP(c.g), Host: host, OnDeliver: record})
			if err != nil {
				t.Fatal(err)
			}
			for round, label := range []string{"new", "reset"} {
				if round > 0 {
					net.Reset(record)
				}
				for i, p := range c.pairs {
					got = got[:0]
					net.Unicast(routing.FlowID(i+1), p.src, p.dst, size, 0)
					net.Run()
					if w := want(c.g, p.forwarders); len(got) != 1 || got[0] != w {
						t.Errorf("%s network, %d -> %d: latencies %v, want [%v]", label, p.src, p.dst, got, w)
					}
				}
			}
		})
	}
}

func TestMMQueueingTheoryValidation(t *testing.T) {
	// The paper: "We have performed extensive validation testing of our
	// simulator to ensure that it produces correct results that match
	// queuing theory." An M/D/1 queue at utilization rho has expected
	// wait W = rho*S / (2*(1-rho)) where S is the (deterministic)
	// service time. Drive one link at rho = 0.5 with Poisson arrivals
	// and compare.
	g := topology.New("md1")
	s0 := g.AddSwitch("s0", topology.TierToR, 0)
	s1 := g.AddSwitch("s1", topology.TierToR, 1)
	h0 := g.AddHost("h0", 0)
	h1 := g.AddHost("h1", 1)
	fast := 100 * sim.Gbps // ingress so fast the only queue is s0->s1
	g.Connect(h0, s0, fast, 0)
	g.Connect(s0, s1, 10*sim.Gbps, 0)
	g.Connect(s1, h1, fast, 0)

	// Use zero-latency switches and hosts to isolate pure queueing.
	ideal := SwitchModel{Latency: 0, CutThrough: false, BufferBytes: 64 << 20}
	var lat []float64
	net, err := New(Config{
		Graph:       g,
		Router:      routing.NewECMP(g),
		SwitchModel: func(topology.Node) SwitchModel { return ideal },
		Host:        HostModel{NICLatency: 0, ForwardLatency: 0, BufferBytes: 64 << 20},
		OnDeliver:   func(d Delivery) { lat = append(lat, d.Latency.Seconds()) },
	})
	if err != nil {
		t.Fatal(err)
	}

	const size = 400
	service := (10 * sim.Gbps).Serialize(size) // 320ns
	rho := 0.5
	meanGap := float64(service) / rho // picoseconds between arrivals
	rng := rand.New(rand.NewSource(99))
	const packets = 200_000
	at := sim.Time(0)
	eng := net.Engine()
	for i := 0; i < packets; i++ {
		at += sim.Time(rng.ExpFloat64() * meanGap)
		p := Packet{Flow: routing.FlowID(i), Src: h0, Dst: h1, Size: size, Waypoint: NoWaypoint}
		func(p Packet, at sim.Time) {
			eng.Schedule(at, func() { net.Send(p) })
		}(p, at)
	}
	eng.Run()
	if len(lat) != packets {
		t.Fatalf("delivered %d, want %d (drops: %d)", len(lat), packets, net.Dropped())
	}
	mean := 0.0
	for _, l := range lat {
		mean += l
	}
	mean /= float64(len(lat))
	// Expected latency: ingress ser (400B @ 100G = 32ns) + wait +
	// service + egress ser = 32 + W + 320 + 32 ns.
	s := service.Seconds()
	wait := rho * s / (2 * (1 - rho))
	base := (fast.Serialize(size)).Seconds() * 2
	want := base + wait + s
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("M/D/1 mean latency = %.1fns, want %.1fns (±5%%)", mean*1e9, want*1e9)
	}
}

func TestConfigErrors(t *testing.T) {
	g, _, _ := twoHosts(t, sim.Gbps)
	if _, err := New(Config{Graph: nil, Router: routing.NewECMP(g)}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(Config{Graph: g, Router: nil}); err == nil {
		t.Error("nil router accepted")
	}
}

func TestSendPanics(t *testing.T) {
	g, h0, h1 := twoHosts(t, sim.Gbps)
	net := newNet(t, g, Arista7150, nil)
	for name, p := range map[string]Packet{
		"zero size":     {Src: h0, Dst: h1, Size: 0, Waypoint: NoWaypoint},
		"switch source": {Src: g.Switches()[0], Dst: h1, Size: 1, Waypoint: NoWaypoint},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			net.Send(p)
		}()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []sim.Time {
		g, h0, h1 := twoHosts(t, 10*sim.Gbps)
		var lat []sim.Time
		net := newNet(t, g, Arista7150, func(d Delivery) { lat = append(lat, d.Latency) })
		rng := rand.New(rand.NewSource(5))
		at := sim.Time(0)
		for i := 0; i < 500; i++ {
			at += sim.Time(rng.ExpFloat64() * 1000 * float64(sim.Nanosecond))
			p := Packet{Flow: routing.FlowID(i), Src: h0, Dst: h1, Size: 400, Waypoint: NoWaypoint}
			func(p Packet, at sim.Time) {
				net.Engine().Schedule(at, func() { net.Send(p) })
			}(p, at)
		}
		net.Engine().Run()
		return lat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkPacketForwarding(b *testing.B) {
	g, h0, h1 := twoHosts(b, 10*sim.Gbps)
	net := newNet(b, g, Arista7150, nil)
	eng := net.Engine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Unicast(routing.FlowID(i), h0, h1, 400, 0)
		eng.Run()
	}
}
