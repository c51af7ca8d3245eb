package netsim

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

func TestTraceRecorderLifecycle(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	tr := NewTraceRecorder(0)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(tr)
	id := net.Unicast(1, h0, h1, 400, 0)
	net.Engine().Run()

	// Three links on the path: one enqueue + one transmit each, then
	// one delivery.
	var evs []TraceEvent
	for _, e := range tr.Events() {
		if e.Packet == id {
			evs = append(evs, e)
		}
	}
	if len(evs) != 7 {
		t.Fatalf("recorded %d events, want 7: %v", len(evs), evs)
	}
	wantOps := []TraceOp{
		TraceEnqueue, TraceTransmit,
		TraceEnqueue, TraceTransmit,
		TraceEnqueue, TraceTransmit,
		TraceDeliver,
	}
	var lastAt sim.Time
	for i, e := range evs {
		if e.Op != wantOps[i] {
			t.Errorf("event %d op = %v, want %v", i, e.Op, wantOps[i])
		}
		if e.At < lastAt {
			t.Errorf("event %d at %v before previous %v", i, e.At, lastAt)
		}
		lastAt = e.At
	}
	if fin := evs[6]; fin.Hops != 3 || fin.Link != -1 {
		t.Errorf("delivery event = %+v, want Hops=3 Link=-1", fin)
	}
	// The enqueue rows name the node each hop left from: the path is
	// those nodes, then the destination.
	var path []topology.NodeID
	for _, e := range evs {
		if e.Op == TraceEnqueue {
			path = append(path, e.From)
		}
	}
	path = append(path, h1)
	want := []topology.NodeID{h0, topology.NodeID(0), topology.NodeID(1), h1}
	if !slices.Equal(path, want) {
		t.Errorf("path = %v, want %v", path, want)
	}
	if tr.Truncated() != 0 {
		t.Errorf("Truncated = %d, want 0", tr.Truncated())
	}
}

func TestTraceRecorderBound(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	tr := NewTraceRecorder(3)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(tr)
	for i := 0; i < 5; i++ {
		net.Unicast(1, h0, h1, 400, 0)
	}
	net.Engine().Run()
	if len(tr.Events()) != 3 {
		t.Errorf("kept %d events, want bound 3", len(tr.Events()))
	}
	if tr.Truncated() == 0 {
		t.Error("Truncated = 0, want > 0 after overflow")
	}
}

func TestTraceRecorderDrop(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	tr := NewTraceRecorder(0)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(tr)
	cutLink(t, net, 1, 0) // the s0-s1 inter-switch link
	net.Unicast(1, h0, h1, 400, 0)
	net.Engine().RunUntil(sim.Millisecond)
	var drops []TraceEvent
	for _, e := range tr.Events() {
		if e.Op == TraceDrop {
			drops = append(drops, e)
		}
	}
	if len(drops) != 1 {
		t.Fatalf("recorded %d drops, want 1: %v", len(drops), tr.Events())
	}
	if !strings.Contains(drops[0].Reason, "down") {
		t.Errorf("drop reason = %q, want a link-down reason", drops[0].Reason)
	}
}

// The sampler keeps at most its bound of rows and counts the rest,
// while its depth statistics go on counting every tick.
func TestQueueSamplerBound(t *testing.T) {
	g, h0, h1 := twoHosts(t, 1*sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewQueueSampler(net, sim.Microsecond)
	s.max = 5
	s.Start(100 * sim.Microsecond)
	for i := 0; i < 20; i++ {
		net.Unicast(1, h0, h1, 1500, 0)
	}
	net.Engine().RunUntil(100 * sim.Microsecond)
	if len(s.Samples()) != 5 || s.Table().Len() != 5 || s.Truncated() == 0 {
		t.Errorf("kept %d rows (table %d), discarded %d; want 5 kept and some discarded", len(s.Samples()), s.Table().Len(), s.Truncated())
	}
	if n := s.DepthStats(PortRef{Link: 1, From: 0}).N(); n != 100 {
		t.Errorf("DepthStats counted %d ticks, want all 100", n)
	}
}

func TestQueueSampler(t *testing.T) {
	// A slow inter-switch link with a burst of packets builds a queue;
	// the sampler must see nonzero depth and utilization on it.
	g, h0, h1 := twoHosts(t, 1*sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewQueueSampler(net, sim.Microsecond)
	net.SetProbe(s) // exact peak tracking
	end := 100 * sim.Microsecond
	s.Start(end)
	for i := 0; i < 20; i++ {
		net.Unicast(1, h0, h1, 1500, 0)
	}
	net.Engine().RunUntil(end)

	if len(s.Samples()) == 0 {
		t.Fatal("no samples recorded")
	}
	bottleneck := PortRef{Link: 1, From: topology.NodeID(0)} // s0 -> s1
	if s.PeakDepth(bottleneck) == 0 {
		t.Error("PeakDepth = 0 on the bottleneck, want > 0")
	}
	st := s.DepthStats(bottleneck)
	if st.N() == 0 || st.Max() == 0 {
		t.Errorf("DepthStats n=%d max=%v, want sampled nonzero depth", st.N(), st.Max())
	}
	var sawBusy bool
	for _, smp := range s.Samples() {
		if smp.Utilization < 0 || smp.Utilization > 1 {
			t.Fatalf("utilization %v out of [0,1] at %v", smp.Utilization, smp.At)
		}
		if smp.Port == bottleneck && smp.Utilization > 0.9 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Error("bottleneck never sampled near 100% utilization during the burst")
	}
	// The event-driven peak must be at least what sampling saw.
	if s.PeakDepth(bottleneck) < int(st.Max()) {
		t.Errorf("probe peak %d below sampled max %v", s.PeakDepth(bottleneck), st.Max())
	}
}

func TestProbesCombinator(t *testing.T) {
	if Probes() != nil || Probes(nil, nil) != nil {
		t.Error("Probes with no real probes should be nil")
	}
	a, b := NewTraceRecorder(0), NewTraceRecorder(0)
	if Probes(a) != Probe(a) {
		t.Error("Probes(a) should unwrap to a itself")
	}
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(Probes(a, nil, b))
	net.Unicast(1, h0, h1, 400, 0)
	net.Engine().Run()
	if len(a.Events()) == 0 || len(a.Events()) != len(b.Events()) {
		t.Errorf("fan-out mismatch: a=%d b=%d events", len(a.Events()), len(b.Events()))
	}
}

func TestNetworkTelemetry(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		net.Unicast(1, h0, h1, 400, 0)
	}
	net.Engine().Run()
	if d, x := net.Delivered(), net.Dropped(); d != 10 || x != 0 {
		t.Errorf("delivered/dropped = %d/%d, want 10/0", d, x)
	}
	tel := net.Engine().Telemetry()
	if tel.Events == 0 || tel.PeakPending == 0 {
		t.Errorf("Events=%d PeakPending=%d, want both > 0", tel.Events, tel.PeakPending)
	}
	if tel.EventsPerSecond() <= 0 {
		t.Errorf("EventsPerSecond = %v, want > 0", tel.EventsPerSecond())
	}
}

func TestTraceAndSamplerEmission(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	tr := NewTraceRecorder(0)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(tr)
	s := NewQueueSampler(net, sim.Microsecond)
	s.Start(10 * sim.Microsecond)
	net.Unicast(1, h0, h1, 400, 0)
	net.Engine().RunUntil(10 * sim.Microsecond)

	var csv bytes.Buffer
	if err := tr.Table().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "at_ps,op,packet,flow,link,from,hops,reason" {
		t.Errorf("trace CSV header = %q", lines[0])
	}
	if len(lines)-1 != len(tr.Events()) {
		t.Errorf("trace CSV has %d rows, want %d", len(lines)-1, len(tr.Events()))
	}

	var js bytes.Buffer
	if err := tr.Table().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(decoded) != len(tr.Events()) {
		t.Errorf("trace JSON has %d events, want %d", len(decoded), len(tr.Events()))
	}

	csv.Reset()
	if err := s.Table().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "at_ps,link,from,queued_bytes,utilization" {
		t.Errorf("sample CSV header = %q", lines[0])
	}
	if len(lines)-1 != len(s.Samples()) {
		t.Errorf("sample CSV has %d rows, want %d", len(lines)-1, len(s.Samples()))
	}

	js.Reset()
	if err := s.Table().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	decoded = nil
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("sample JSON does not parse: %v", err)
	}
	if len(decoded) != len(s.Samples()) {
		t.Errorf("sample JSON has %d samples, want %d", len(decoded), len(s.Samples()))
	}
}

// dropLog records every drop.
type dropLog struct {
	nopProbe
	drops []Drop
}

func (l *dropLog) PacketDropped(d Drop) { l.drops = append(l.drops, d) }

// nopProbe is an attached-but-empty probe, for measuring hook cost.
type nopProbe struct{}

func (nopProbe) PacketEnqueued(QueueEvent)    {}
func (nopProbe) PacketTransmitted(QueueEvent) {}
func (nopProbe) PacketDelivered(Delivery)     {}
func (nopProbe) PacketDropped(Drop)           {}

// benchProbe runs a fixed packet workload with the given probe; the
// disabled (nil) case must cost the same as before probes existed —
// each hook site is a single nil check.
func benchProbe(b *testing.B, p Probe) {
	g, h0, h1 := twoHosts(b, 10*sim.Gbps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
		if err != nil {
			b.Fatal(err)
		}
		net.SetProbe(p)
		for j := 0; j < 100; j++ {
			net.Unicast(1, h0, h1, 400, 0)
		}
		net.Engine().Run()
		if net.Delivered() != 100 {
			b.Fatalf("delivered %d, want 100", net.Delivered())
		}
	}
}

func BenchmarkProbeOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchProbe(b, nil) })
	b.Run("noop", func(b *testing.B) { benchProbe(b, nopProbe{}) })
	b.Run("trace", func(b *testing.B) { benchProbe(b, NewTraceRecorder(1024)) })
}

// Events returns the recorded trace in event order. The slice is live;
// do not mutate it.
func (t *TraceRecorder) Events() []TraceEvent { return t.events }

// Samples returns every recorded sample in time order. The slice is
// live; do not mutate it.
func (s *QueueSampler) Samples() []QueueSample { return s.samples }
