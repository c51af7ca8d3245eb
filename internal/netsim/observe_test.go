package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

func buildMesh(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: 8, HostsPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestObserve checks the one attach point: a recorder and a tracker
// combined with Probes and attached with SetProbe both see the run.
func TestObserve(t *testing.T) {
	g := buildMesh(t)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	rec, ft := NewTraceRecorder(0), NewFlowTracker()
	net.SetProbe(Probes(rec, ft))
	hosts := g.Hosts()
	net.Unicast(1, hosts[0], hosts[3], 400, 0)
	net.Unicast(2, hosts[5], hosts[9], 400, 0)
	net.Engine().Run()
	flows := ft.Flows()
	if len(flows) != 2 {
		t.Fatalf("flow table has %d rows, want 2", len(flows))
	}
	for _, f := range flows {
		if f.PacketsDelivered != 1 {
			t.Errorf("flow %d delivered %d, want 1", f.Flow, f.PacketsDelivered)
		}
	}
	if ev := rec.Events(); len(ev) == 0 {
		t.Fatal("trace is empty")
	}
}

// The two digests pin the trace CSV and flow table CSV bytes of a bare
// TraceRecorder and FlowTracker for one single-engine run. They were
// recorded on the commit before the multi-shard execution family (and
// with it a K-way fan-in of per-shard recorders) was deleted, so the
// two orderings the merge step used to apply — trace rows by content,
// flows by (FirstSend, Flow) — are checked across that deletion, not
// only within one process. Each table now keeps that order itself. The
// run has two link cuts (one repaired) and a switch failure, and flows
// 9 and 3 first send at the same instant in that order, so a flow
// table that broke the tie by insertion would print 9 before 3. The flow digest
// was re-recorded when the table lost its retransmits column, which
// read 0 on every row: the bytes are that commit's with the ninth
// column cut.
const (
	goldenObserveTrace = "c0df60c1abaff0ce70d984dfd8bb2fe9f8cd075d3dee0b8f7d9c1cdd8494b6a2"
	goldenObserveFlows = "690213459ad122b21d313d822fac69f158d7cf2452c9c49f47ef21744810f3a2"
)

// goldenObserveRun is the run TestGoldenObserveOutput pins, with
// onDeliver (nil for none) as the network's delivery hook, and the
// trace recorder and flow tracker attached to it.
func goldenObserveRun(t *testing.T, onDeliver func(Delivery)) (*Network, *TraceRecorder, *FlowTracker) {
	t.Helper()
	g := buildMesh(t)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g), OnDeliver: onDeliver})
	if err != nil {
		t.Fatal(err)
	}
	rec, ft := NewTraceRecorder(0), NewFlowTracker()
	net.SetProbe(Probes(rec, ft))
	hosts := g.Hosts()
	eng := net.Engine()
	for i, h := range hosts {
		for j := 0; j < 40; j++ {
			src, dst := h, hosts[(i+1+j)%len(hosts)]
			flow := routing.FlowID(i*64 + j%8)
			eng.Schedule(sim.Time(i*37+j*211)*sim.Microsecond, func() {
				net.Send(Packet{Flow: flow, Src: src, Dst: dst, Size: 400, Waypoint: NoWaypoint})
			})
		}
	}
	// Flows 9 then 3 first send in the same event, on hosts whose
	// other flows start elsewhere in time.
	eng.Schedule(50*sim.Microsecond, func() {
		net.Send(Packet{Flow: 9, Src: hosts[2], Dst: hosts[11], Size: 400, Waypoint: NoWaypoint})
		net.Send(Packet{Flow: 3, Src: hosts[7], Dst: hosts[12], Size: 400, Waypoint: NoWaypoint})
	})
	// Links 16+ are the switch-to-switch mesh links (host links come
	// first in creation order).
	if err := net.Faults().Apply(FaultSchedule{
		Events: []FaultEvent{
			{Kind: FaultLink, Link: 20, At: 3 * sim.Millisecond, RepairAt: 6 * sim.Millisecond},
			{Kind: FaultLink, Link: 30, At: 5 * sim.Millisecond},
			{Kind: FaultSwitch, Switch: g.Switches()[6], At: 7 * sim.Millisecond},
		},
		DetectionDelay: 500 * sim.Microsecond,
		Policy:         DropInFlight,
	}); err != nil {
		t.Fatal(err)
	}
	net.Engine().RunUntil(20 * sim.Millisecond)
	return net, rec, ft
}

func TestGoldenObserveOutput(t *testing.T) {
	net, rec, ft := goldenObserveRun(t, nil)
	if net.Dropped() == 0 {
		t.Fatal("the faults dropped nothing; the run does not exercise faults")
	}

	var traceCSV, flowCSV strings.Builder
	if err := rec.Table().WriteCSV(&traceCSV); err != nil {
		t.Fatal(err)
	}
	if err := ft.Table().WriteCSV(&flowCSV); err != nil {
		t.Fatal(err)
	}
	flows := ft.Flows()
	for i, f := range flows {
		if f.Flow == 3 && (i+1 >= len(flows) || flows[i+1].Flow != 9 || flows[i+1].FirstSend != f.FirstSend) {
			t.Errorf("flows 3 and 9 tie on FirstSend and must print in that order")
		}
	}
	for name, c := range map[string]struct{ got, want string }{
		"trace CSV":  {traceCSV.String(), goldenObserveTrace},
		"flow table": {flowCSV.String(), goldenObserveFlows},
	} {
		sum := sha256.Sum256([]byte(c.got))
		if d := hex.EncodeToString(sum[:]); d != c.want {
			t.Errorf("%s changed: sha256 %s, want %s (%d bytes)", name, d, c.want, len(c.got))
		}
	}
}

// The trace carries every packet's delivery latency: Send schedules a
// packet's first forward NICLatency after Created, so for a non-loopback
// packet Latency = deliver.At − enqueue(hops 0).At + NICLatency. That is
// how quartzsim's -trace output stands in for a latency histogram.
func TestTraceCarriesPacketLatency(t *testing.T) {
	var deliveries []Delivery
	net, rec, _ := goldenObserveRun(t, func(d Delivery) { deliveries = append(deliveries, d) })
	injected := map[uint64]sim.Time{}
	delivered := map[uint64]sim.Time{}
	for _, e := range rec.Events() {
		switch {
		case e.Op == TraceEnqueue && e.Hops == 0:
			injected[e.Packet] = e.At
		case e.Op == TraceDeliver:
			delivered[e.Packet] = e.At
		}
	}
	if len(deliveries) == 0 || len(delivered) != len(deliveries) {
		t.Fatalf("%d deliveries, %d deliver rows in the trace", len(deliveries), len(delivered))
	}
	loopback := 0
	for _, d := range deliveries {
		at, ok := delivered[d.Packet.ID]
		enq, sent := injected[d.Packet.ID]
		if d.Packet.Src == d.Packet.Dst {
			// Never queued: the stack round trip is the whole latency.
			loopback++
			if !ok || sent || at != d.At || d.Latency != 2*net.host.NICLatency {
				t.Errorf("loopback packet %d: deliver row %v (%v), queued %v, latency %v", d.Packet.ID, at, ok, sent, d.Latency)
			}
			continue
		}
		if !ok || !sent || at != d.At {
			t.Fatalf("packet %d delivered at %v: trace deliver row %v (%v), source enqueue %v (%v)",
				d.Packet.ID, d.At, at, ok, enq, sent)
		}
		if got := at - enq + net.host.NICLatency; got != d.Latency {
			t.Errorf("packet %d: trace gives latency %v, delivery reports %v", d.Packet.ID, got, d.Latency)
		}
	}
	if loopback == len(deliveries) {
		t.Fatal("every delivery was a loopback")
	}
}
