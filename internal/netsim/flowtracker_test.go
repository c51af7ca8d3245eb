package netsim

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
)

func TestFlowTrackerAggregates(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	ft := NewFlowTracker()
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(ft)
	// Flow 1: 5 packets h0->h1. Flow 2: 3 packets the other way.
	for i := 0; i < 5; i++ {
		net.Unicast(1, h0, h1, 400, 0)
	}
	for i := 0; i < 3; i++ {
		net.Unicast(2, h1, h0, 900, 0)
	}
	net.Engine().Run()

	if n := len(ft.Flows()); n != 2 {
		t.Fatalf("%d flows, want 2", n)
	}
	f1, ok := ft.Flow(1)
	if !ok {
		t.Fatal("flow 1 not tracked")
	}
	if f1.PacketsSent != 5 || f1.PacketsDelivered != 5 || f1.PacketsDropped != 0 {
		t.Errorf("flow 1 sent/delivered/dropped = %d/%d/%d, want 5/5/0",
			f1.PacketsSent, f1.PacketsDelivered, f1.PacketsDropped)
	}
	if f1.BytesDelivered != 5*400 {
		t.Errorf("flow 1 bytes = %d, want 2000", f1.BytesDelivered)
	}
	if f1.MaxHops != 3 {
		t.Errorf("flow 1 max hops = %d, want 3 (two switches + dest)", f1.MaxHops)
	}
	if f1.FCT <= 0 || f1.MeanLatency() <= 0 {
		t.Errorf("flow 1 FCT=%v meanLat=%v, want both > 0", f1.FCT, f1.MeanLatency())
	}
	// All sends happen at t=0; flow order must be stable.
	flows := ft.Flows()
	if len(flows) != 2 || flows[0].Flow != 1 || flows[1].Flow != 2 {
		t.Errorf("Flows() order = %v", flows)
	}

	// Totals across the table match the two flows' traffic.
	var sent, delivered, bytes uint64
	for _, f := range flows {
		sent += f.PacketsSent
		delivered += f.PacketsDelivered
		bytes += f.BytesDelivered
	}
	if sent != 8 || delivered != 8 {
		t.Errorf("table sent/delivered = %d/%d, want 8/8", sent, delivered)
	}
	if bytes != 5*400+3*900 {
		t.Errorf("table bytes = %d, want %d", bytes, 5*400+3*900)
	}
	f2, _ := ft.Flow(2)
	if f2.PacketsDelivered != 3 || f2.MeanLatency() <= 0 {
		t.Errorf("flow 2 delivered=%d meanLat=%v, want 3 and > 0", f2.PacketsDelivered, f2.MeanLatency())
	}
}

func TestFlowTrackerDropAttribution(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	ft := NewFlowTracker()
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(ft)
	// Cut the s0-s1 inter-switch link at 0; routes reconverge at 1ms,
	// and with no other path the packet sent after that has no route.
	if err := net.Faults().Apply(FaultSchedule{
		Events:         []FaultEvent{{Kind: FaultLink, Link: 1}},
		DetectionDelay: sim.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	eng := net.Engine()
	net.Unicast(7, h0, h1, 400, 0)
	eng.Schedule(2*sim.Millisecond, func() { net.Unicast(7, h0, h1, 400, 0) })
	eng.RunUntil(3 * sim.Millisecond)

	f, ok := ft.Flow(7)
	if !ok || f.PacketsDropped != 2 {
		t.Fatalf("flow 7 dropped = %d, want 2", f.PacketsDropped)
	}
	if f.DropsByClass[DropLinkDown] != 1 || f.DropsByClass[DropNoRoute] != 1 {
		t.Errorf("drop classes = %v, want 1 %s and 1 %s", f.DropsByClass, DropLinkDown, DropNoRoute)
	}
	// The no-route drop came after reconvergence closed the fault
	// window, so it is NOT a fault-window drop.
	if f.FaultWindowDrops != 1 {
		t.Errorf("fault-window drops = %d, want 1 (the link-down drop only)", f.FaultWindowDrops)
	}
}

func TestFlowTrackerFaultWindowAttribution(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	ft := NewFlowTracker()
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(ft)
	// Cut the inter-switch link at 1ms; detection 10ms keeps the
	// degradation window open for the rest of the run.
	fi := net.Faults()
	if err := fi.Apply(FaultSchedule{
		Events:         []FaultEvent{{Kind: FaultLink, Link: 1, At: sim.Millisecond}},
		DetectionDelay: 10 * sim.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	eng := net.Engine()
	// One packet before the cut, one inside the blackhole window.
	eng.Schedule(0, func() { net.Unicast(3, h0, h1, 400, 0) })
	eng.Schedule(2*sim.Millisecond, func() { net.Unicast(3, h0, h1, 400, 0) })
	eng.RunUntil(5 * sim.Millisecond)

	f, ok := ft.Flow(3)
	if !ok {
		t.Fatal("flow 3 not tracked")
	}
	if f.PacketsDelivered != 1 || f.PacketsDropped != 1 {
		t.Fatalf("delivered/dropped = %d/%d, want 1/1", f.PacketsDelivered, f.PacketsDropped)
	}
	if f.FaultWindowDrops != 1 {
		t.Errorf("fault-window drops = %d, want 1 (drop inside the blackhole window)", f.FaultWindowDrops)
	}
}

func TestFlowTrackerFCTStats(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	ft := NewFlowTracker()
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(ft)
	net.Unicast(1, h0, h1, 400, 0)
	net.Unicast(2, h1, h0, 400, 0)
	net.Engine().Run()
	// The scenario's FCT line reads these FCTs.
	flows := ft.Flows()
	if len(flows) != 2 {
		t.Fatalf("%d flows, want 2", len(flows))
	}
	for _, f := range flows {
		if f.FCT <= 0 || f.FCT != f.LastActivity-f.FirstSend {
			t.Errorf("flow %d: FCT %v, first send %v, last activity %v", f.Flow, f.FCT, f.FirstSend, f.LastActivity)
		}
	}
}

func TestFlowTrackerExports(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	ft := NewFlowTracker()
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(ft)
	net.Unicast(1, h0, h1, 400, 0)
	net.Engine().Run()

	var buf bytes.Buffer
	if err := ft.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("flow CSV does not parse: %v", err)
	}
	if len(rows) != 2 || rows[0][0] != "flow" {
		t.Fatalf("flow CSV = %v", rows)
	}

	buf.Reset()
	if err := ft.Table().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("flow JSON does not parse: %v", err)
	}
	// The keys are the CSV header: drops_by_class is the CSV's string,
	// and every column is present on every row.
	if len(decoded) != 1 || decoded[0]["delivered"] != 1.0 ||
		decoded[0]["drops_by_class"] != "" || decoded[0]["fault_window_drops"] != 0.0 {
		t.Fatalf("flow JSON = %v", decoded)
	}
}

func TestClassifyDrop(t *testing.T) {
	for reason, want := range map[string]string{
		"queue full on link 12":              DropQueueFull,
		"link 3 down":                        DropLinkDown,
		"link 3 cut":                         DropLinkCut,
		"no route: ksp: disconnected":        DropNoRoute,
		"hop limit exceeded (routing loop?)": DropHopLimit,
		"cosmic ray":                         DropOther,
	} {
		if got := classifyDrop(reason); got != want {
			t.Errorf("classifyDrop(%q) = %q, want %q", reason, got, want)
		}
	}
}

// classifyDrop maps a raw drop reason to its class: the string-matching
// reference for DropCode.Class.
func classifyDrop(reason string) string {
	switch {
	case strings.HasPrefix(reason, "queue full"):
		return DropQueueFull
	case strings.HasSuffix(reason, "down"):
		return DropLinkDown
	case strings.HasSuffix(reason, "cut"):
		return DropLinkCut
	case strings.HasPrefix(reason, "no route"):
		return DropNoRoute
	case strings.HasPrefix(reason, "hop limit"):
		return DropHopLimit
	}
	return DropOther
}

// Flow returns one flow's stats.
func (t *FlowTracker) Flow(id routing.FlowID) (FlowStats, bool) {
	f, ok := t.flows[id]
	if !ok {
		return FlowStats{}, false
	}
	return t.snapshotFlow(f), true
}
