package tcp

import (
	"math"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// dumbbell builds h0,h1 - s0 -(bottleneck)- s1 - h2 with the given
// bottleneck rate and switch model.
func dumbbell(t testing.TB, bottleneck sim.Rate, model netsim.SwitchModel) (*netsim.Network, *traffic.Harness, []topology.NodeID) {
	t.Helper()
	g := topology.New("dumbbell")
	s0 := g.AddSwitch("s0", topology.TierToR, 0)
	s1 := g.AddSwitch("s1", topology.TierToR, 1)
	h0 := g.AddHost("h0", 0)
	h1 := g.AddHost("h1", 0)
	h2 := g.AddHost("h2", 1)
	fast := 40 * sim.Gbps
	g.Connect(h0, s0, fast, topology.DefaultProp)
	g.Connect(h1, s0, fast, topology.DefaultProp)
	g.Connect(s0, s1, bottleneck, topology.DefaultProp)
	g.Connect(s1, h2, fast, topology.DefaultProp)
	h := traffic.NewHarness()
	net, err := netsim.New(netsim.Config{
		Graph:       g,
		Router:      routing.NewECMP(g),
		SwitchModel: func(topology.Node) netsim.SwitchModel { return model },
		Host:        netsim.HostModel{NICLatency: 500 * sim.Nanosecond, ForwardLatency: 15 * sim.Microsecond, BufferBytes: 4 << 20},
		OnDeliver:   h.Deliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, h, []topology.NodeID{h0, h1, h2}
}

func TestSingleFlowFillsBottleneck(t *testing.T) {
	net, h, hosts := dumbbell(t, 1*sim.Gbps, netsim.Arista7150)
	c, err := New(Config{
		Net: net, Harness: h, Src: hosts[0], Dst: hosts[2],
		Flow: 10, DataTag: 1, AckTag: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	net.Engine().RunUntil(50 * sim.Millisecond)
	// Goodput should reach ~90%+ of the 1 Gb/s bottleneck.
	tput := c.Throughput()
	if tput < 0.85e9 || tput > 1.01e9 {
		t.Errorf("throughput = %.2f Mb/s, want ~1000", tput/1e6)
	}
}

func TestFiniteFlowCompletes(t *testing.T) {
	net, h, hosts := dumbbell(t, 10*sim.Gbps, netsim.Arista7150)
	var fct sim.Time
	c, err := New(Config{
		Net: net, Harness: h, Src: hosts[0], Dst: hosts[2],
		Flow: 10, DataTag: 1, AckTag: 2,
		Bytes:      1_500_000, // 1000 segments
		OnComplete: func(d sim.Time) { fct = d },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	net.Engine().RunUntil(200 * sim.Millisecond)
	if !c.Done() {
		t.Fatalf("flow incomplete: acked %d segments", c.delivered)
	}
	if fct <= 0 {
		t.Fatal("no completion callback")
	}
	// 12 Mbit at 10 Gb/s is 1.2 ms on the wire; slow start roughly
	// doubles per RTT (~5 µs), so completion within a few ms.
	if fct > 10*sim.Millisecond {
		t.Errorf("FCT = %v, want a few ms", fct)
	}
	if c.delivered != 1000 {
		t.Errorf("delivered %d segments, want 1000", c.delivered)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	net, h, hosts := dumbbell(t, 1*sim.Gbps, netsim.Arista7150)
	mk := func(src topology.NodeID, flow routing.FlowID, dataTag int) *Conn {
		c, err := New(Config{
			Net: net, Harness: h, Src: src, Dst: hosts[2],
			Flow: flow, DataTag: dataTag, AckTag: dataTag + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := mk(hosts[0], 10, 1)
	b := mk(hosts[1], 20, 3)
	a.Start()
	b.Start()
	net.Engine().RunUntil(100 * sim.Millisecond)
	ta, tb := a.Throughput(), b.Throughput()
	total := ta + tb
	if total < 0.8e9 {
		t.Errorf("aggregate = %.0f Mb/s, want near 1000", total/1e6)
	}
	ratio := ta / tb
	if ratio < 1 {
		ratio = 1 / ratio
	}
	// AIMD fairness: within 2x of each other over 100 ms.
	if ratio > 2.0 {
		t.Errorf("unfair split: %.0f vs %.0f Mb/s", ta/1e6, tb/1e6)
	}
}

func TestLossRecovery(t *testing.T) {
	// A tiny bottleneck buffer forces drops; the flow must still finish.
	small := netsim.Arista7150
	small.BufferBytes = 15_000 // 10 segments
	net, h, hosts := dumbbell(t, 500*sim.Mbps, small)
	c, err := New(Config{
		Net: net, Harness: h, Src: hosts[0], Dst: hosts[2],
		Flow: 10, DataTag: 1, AckTag: 2,
		Bytes: 750_000, // 500 segments
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	net.Engine().RunUntil(2 * sim.Second)
	if !c.Done() {
		t.Fatalf("flow incomplete after loss: acked %d/500, retrans %d, cwnd %.1f",
			c.delivered, c.Retransmits(), c.cwnd)
	}
	if c.Retransmits() == 0 {
		t.Error("expected retransmissions with a 10-segment buffer")
	}
}

func TestDCTCPKeepsQueuesShort(t *testing.T) {
	// Same bottleneck, ECN threshold at 30 KB: DCTCP holds the queue
	// near the threshold while Reno fills the whole buffer.
	run := func(mode Mode) int {
		model := netsim.Arista7150
		model.BufferBytes = 500_000
		model.ECNThresholdBytes = 30_000
		net, h, hosts := dumbbell(t, 1*sim.Gbps, model)
		c, err := New(Config{
			Net: net, Harness: h, Src: hosts[0], Dst: hosts[2],
			Flow: 10, DataTag: 1, AckTag: 2, Mode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		g := net.Graph()
		bott, _ := g.FindLink(g.Switches()[0], g.Switches()[1])
		// Sample the bottleneck queue every 100 µs.
		sampler := netsim.NewQueueSampler(net, 100*sim.Microsecond)
		sampler.Start(50 * sim.Millisecond)
		net.Engine().RunUntil(50 * sim.Millisecond)
		if tput := c.Throughput(); tput < 0.7e9 {
			t.Errorf("%v throughput = %.0f Mb/s, want near line rate", mode, tput/1e6)
		}
		return sampler.PeakDepth(netsim.PortRef{Link: bott.ID, From: g.Switches()[0]})
	}
	reno := run(Reno)
	dctcp := run(DCTCP)
	if dctcp >= reno {
		t.Errorf("DCTCP max queue %d >= Reno %d; ECN had no effect", dctcp, reno)
	}
	if dctcp > 150_000 {
		t.Errorf("DCTCP max queue %d B, want well under the 500 KB buffer", dctcp)
	}
}

func TestConfigErrors(t *testing.T) {
	net, h, hosts := dumbbell(t, sim.Gbps, netsim.Arista7150)
	if _, err := New(Config{Net: nil, Harness: h, Src: hosts[0], Dst: hosts[2]}); err == nil {
		t.Error("nil net accepted")
	}
	if _, err := New(Config{Net: net, Harness: h, Src: hosts[0], Dst: hosts[0]}); err == nil {
		t.Error("src==dst accepted")
	}
	if _, err := New(Config{Net: net, Harness: h, Src: hosts[0], Dst: hosts[2], MSS: 8}); err == nil {
		t.Error("tiny MSS accepted")
	}
	if Reno.String() != "reno" || DCTCP.String() != "dctcp" {
		t.Error("Mode strings wrong")
	}
}

func TestRTTEstimation(t *testing.T) {
	net, h, hosts := dumbbell(t, 10*sim.Gbps, netsim.Arista7150)
	c, err := New(Config{
		Net: net, Harness: h, Src: hosts[0], Dst: hosts[2],
		Flow: 10, DataTag: 1, AckTag: 2, Bytes: 150_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	net.Engine().RunUntil(50 * sim.Millisecond)
	if !c.Done() {
		t.Fatal("flow incomplete")
	}
	// The base RTT is a few microseconds; with self-induced queueing
	// during slow start SRTT lands in the tens of microseconds, and the
	// RTO sits at its 200 µs floor.
	if c.srtt <= 0 || c.srtt > 200*sim.Microsecond {
		t.Errorf("srtt = %v, want tens of us", c.srtt)
	}
	if c.rto != 200*sim.Microsecond {
		t.Errorf("rto = %v, want the 200us floor", c.rto)
	}
	if math.IsNaN(c.alpha) {
		t.Error("alpha NaN")
	}
}

// Done reports whether a finite flow has been fully acknowledged.
func (c *Conn) Done() bool { return c.done }

// Retransmits returns the number of retransmitted segments.
func (c *Conn) Retransmits() uint64 { return c.retrans }

// Throughput returns the goodput in bits per second since Start.
func (c *Conn) Throughput() float64 {
	elapsed := c.eng.Now() - c.started
	if elapsed <= 0 {
		return 0
	}
	return float64(c.delivered) * float64(c.cfg.MSS) * 8 / elapsed.Seconds()
}
