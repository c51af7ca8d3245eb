package traffic

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// meshNet builds a small Quartz-style mesh with a harness attached.
func meshNet(t testing.TB, m, hostsPer int) (*netsim.Network, *Harness, *topology.Graph) {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: m, HostsPerSwitch: hostsPer})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness()
	net, err := netsim.New(netsim.Config{
		Graph:     g,
		Router:    routing.NewECMP(g),
		OnDeliver: h.Deliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, h, g
}

func TestPoissonStreamRate(t *testing.T) {
	net, h, g := meshNet(t, 4, 2)
	hosts := g.Hosts()
	s := &Stream{
		Net: net, Src: hosts[0], Dst: hosts[7],
		Flow: 1, RatePPS: 1e6, Tag: 3,
		Rand: rand.New(rand.NewSource(10)),
	}
	if err := s.Start(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	// Expect ~10,000 packets in 10ms at 1Mpps.
	n := h.Latency(3).N()
	if n < 9000 || n > 11000 {
		t.Errorf("delivered %d packets, want ~10000", n)
	}
	// Defaults applied.
	if s.Size != PacketSize {
		t.Errorf("size defaulted to %d, want %d", s.Size, PacketSize)
	}
}

func TestStreamErrors(t *testing.T) {
	net, _, g := meshNet(t, 3, 1)
	hosts := g.Hosts()
	s := &Stream{Net: net, Src: hosts[0], Dst: hosts[1], RatePPS: 100}
	if err := s.Start(sim.Second); err == nil {
		t.Error("nil Rand accepted")
	}
	s2 := &Stream{Net: net, Src: hosts[0], Dst: hosts[1], Rand: rand.New(rand.NewSource(1))}
	if err := s2.Start(sim.Second); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestScatterTask(t *testing.T) {
	net, h, g := meshNet(t, 4, 4)
	hosts := g.Hosts()
	task := Scatter(net, hosts[0], hosts[4:10], 1e5, 1, nil, rand.New(rand.NewSource(11)), nil)
	if err := task.Start(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	// 6 receivers x 1e5 pps x 5ms = ~3000 packets.
	n := h.Latency(1).N()
	if n < 2400 || n > 3600 {
		t.Errorf("scatter delivered %d, want ~3000", n)
	}
	// Mesh latency stays in single-digit microseconds at this load.
	if mean := h.Latency(1).Mean(); mean > 5 {
		t.Errorf("scatter mean latency %v us, want < 5us on an idle mesh", mean)
	}
}

func TestGatherTask(t *testing.T) {
	net, h, g := meshNet(t, 4, 4)
	hosts := g.Hosts()
	task := Gather(net, hosts[4:10], hosts[0], 1e5, 2, nil, rand.New(rand.NewSource(12)), nil)
	if err := task.Start(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	n := h.Latency(2).N()
	if n < 2400 || n > 3600 {
		t.Errorf("gather delivered %d, want ~3000", n)
	}
}

func TestScatterGatherRepliesFlow(t *testing.T) {
	net, h, g := meshNet(t, 4, 4)
	hosts := g.Hosts()
	task := ScatterGather(net, h, hosts[0], hosts[4:8], 1e5, 10, 11, nil, rand.New(rand.NewSource(13)), nil)
	if err := task.Start(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	req, rep := h.Latency(10).N(), h.Latency(11).N()
	if req == 0 {
		t.Fatal("no requests delivered")
	}
	if rep != req {
		t.Errorf("replies %d != requests %d", rep, req)
	}
}

func TestRPCClosedLoop(t *testing.T) {
	net, h, g := meshNet(t, 4, 2)
	hosts := g.Hosts()
	r := &RPC{
		Net: net, Harness: h,
		Client: hosts[0], Server: hosts[5],
		Count: 100, ReqTag: 20, ReplyTag: 21,
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	if r.RTT.N() != 100 {
		t.Fatalf("completed %d RPCs, want 100", r.RTT.N())
	}
	// RTT should be roughly twice the one-way latency and tightly
	// distributed on an idle network.
	if r.RTT.Mean() <= 0 || r.RTT.Mean() > 10 {
		t.Errorf("mean RTT = %v us, want ~4us", r.RTT.Mean())
	}
	if r.RTT.StdDev() > 0.01 {
		t.Errorf("idle-network RTT jitter %v us, want ~0", r.RTT.StdDev())
	}
	bad := &RPC{Net: net, Harness: h, Client: hosts[0], Server: hosts[1], Count: 0, ReqTag: 22, ReplyTag: 23}
	if err := bad.Start(); err == nil {
		t.Error("zero count accepted")
	}
}

func TestBurstyAverageBandwidth(t *testing.T) {
	net, h, g := meshNet(t, 4, 2)
	hosts := g.Hosts()
	b := &Bursty{
		Net: net, Src: hosts[0], Dst: hosts[6], Flow: 9,
		Bandwidth: 200 * sim.Mbps, Tag: 30,
		Rand: rand.New(rand.NewSource(14)),
	}
	const dur = 100 * sim.Millisecond
	if err := b.Start(dur); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	bytes := float64(h.Latency(30).N() * burstSize)
	gotRate := bytes * 8 / dur.Seconds()
	if gotRate < 1.4e8 || gotRate > 2.6e8 {
		t.Errorf("bursty achieved %v bps, want ~2e8", gotRate)
	}
	if burstLen != 20 || burstSize != 1500 {
		t.Errorf("bursts of %d packets of %d bytes, want the paper's 20 of 1500", burstLen, burstSize)
	}
	bad := &Bursty{Net: net, Src: hosts[0], Dst: hosts[1], Rand: b.Rand}
	if err := bad.Start(dur); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad2 := &Bursty{Net: net, Src: hosts[0], Dst: hosts[1], Bandwidth: sim.Gbps}
	if err := bad2.Start(dur); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestRandomPermutation(t *testing.T) {
	_, _, g := meshNet(t, 4, 4)
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(15))
	pairs := RandomPermutation(hosts, rng)
	if len(pairs) != len(hosts) {
		t.Fatalf("pairs = %d, want %d", len(pairs), len(hosts))
	}
	sends := map[topology.NodeID]int{}
	recvs := map[topology.NodeID]int{}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("self-pair %v", p)
		}
		sends[p[0]]++
		recvs[p[1]]++
	}
	for _, h := range hosts {
		if sends[h] != 1 || recvs[h] != 1 {
			t.Errorf("host %d sends %d recvs %d, want 1/1", h, sends[h], recvs[h])
		}
	}
}

func TestIncast(t *testing.T) {
	_, _, g := meshNet(t, 4, 4)
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(16))
	pairs := Incast(hosts, 10, rng)
	if len(pairs) != len(hosts)*10 {
		t.Fatalf("pairs = %d, want %d", len(pairs), len(hosts)*10)
	}
	recvs := map[topology.NodeID]int{}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("self-pair %v", p)
		}
		recvs[p[1]]++
	}
	for _, h := range hosts {
		if recvs[h] != 10 {
			t.Errorf("host %d receives %d, want 10", h, recvs[h])
		}
	}
}

func TestRackShuffle(t *testing.T) {
	_, _, g := meshNet(t, 6, 4)
	rng := rand.New(rand.NewSource(17))
	pairs := RackShuffle(g, 3, rng)
	if len(pairs) != len(g.Hosts()) {
		t.Fatalf("pairs = %d, want one per host (%d)", len(pairs), len(g.Hosts()))
	}
	for _, p := range pairs {
		if g.Node(p[0]).Rack == g.Node(p[1]).Rack {
			t.Errorf("pair %v stays in rack %d", p, g.Node(p[0]).Rack)
		}
	}
	// Degenerate single-rack graph.
	g1, err := topology.NewFullMesh(topology.MeshConfig{Switches: 1, HostsPerSwitch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := RackShuffle(g1, 2, rng); len(got) != 0 {
		t.Errorf("single-rack shuffle produced %d pairs", len(got))
	}
}

func TestVLBStreamSpreadsPackets(t *testing.T) {
	// With VLB fraction 1.0 on a 5-switch mesh, packets from one pair
	// transit all three possible waypoints.
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: 5, HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	vlb, err := routing.NewVLB(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness()
	hopCount := map[int]int{}
	net, err := netsim.New(netsim.Config{
		Graph:  g,
		Router: vlb,
		OnDeliver: func(d netsim.Delivery) {
			h.Deliver(d)
			hopCount[d.Packet.Hops]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	s := &Stream{
		Net: net, Src: hosts[0], Dst: hosts[4],
		Flow: 7, RatePPS: 1e5, Tag: 50, VLB: vlb,
		Rand: rand.New(rand.NewSource(20)),
	}
	if err := s.Start(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	// All packets took two-hop paths: 3 forwarding elements + delivery.
	if len(hopCount) != 1 {
		t.Errorf("hop counts %v, want all equal (all indirect)", hopCount)
	}
	for hops := range hopCount {
		if hops != 4 {
			t.Errorf("hops = %d, want 4 (src ToR, waypoint, dst ToR, host)", hops)
		}
	}
	if h.Latency(50).N() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestHarnessUnknownTag(t *testing.T) {
	h := NewHarness()
	if h.Latency(99).N() != 0 {
		t.Error("unknown tag should have empty stats")
	}
}

func TestPoissonLatencyReasonable(t *testing.T) {
	// Sanity: mean latency on an idle mesh ~ 2 switch hops ~ 2.6us with
	// NIC overheads (Table 9's 1.0us is switch latency only).
	net, h, g := meshNet(t, 8, 2)
	hosts := g.Hosts()
	s := &Stream{
		Net: net, Src: hosts[0], Dst: hosts[15],
		Flow: 1, RatePPS: 1e4, Tag: 60,
		Rand: rand.New(rand.NewSource(21)),
	}
	if err := s.Start(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	mean := h.Latency(60).Mean()
	// 2 x 380ns switching + 320ns ser + ~1us NICs + prop: ~2.5us.
	if math.Abs(mean-2.5) > 1.0 {
		t.Errorf("idle mesh mean latency = %v us, want ~2.5us", mean)
	}
}
