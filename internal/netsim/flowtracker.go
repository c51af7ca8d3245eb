package netsim

// FlowTracker is the per-flow telemetry aggregator: it rides the Probe
// lifecycle hooks (plus FaultObserver for drop attribution) and folds
// the raw event stream into flow-completion times, byte counts, hop
// counts and classified drop counts — the §6.1 / §7.1 quantities,
// maintained online so a million-packet run never materializes its
// event list. The table exports through Flows and
// Table.

import (
	"fmt"
	"sort"
	"strings"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/table"
)

// Drop-reason classes used for attribution. Raw reasons carry IDs
// ("queue full on link 12"); the tracker folds them into bounded
// classes so the table's drop column stays short.
const (
	DropQueueFull = "queue-full"
	DropLinkDown  = "link-down"
	DropLinkCut   = "link-cut"
	DropNoRoute   = "no-route"
	DropHopLimit  = "hop-limit"
	DropOther     = "other"
)

// FlowStats is one flow's aggregated telemetry.
type FlowStats struct {
	Flow routing.FlowID
	// FirstSend is when the flow's first packet left its source;
	// LastActivity is the latest delivery or drop.
	FirstSend    sim.Time
	LastActivity sim.Time
	// FCT is the observed flow span: LastActivity - FirstSend. For the
	// open-loop streams of the task workloads this is the active period;
	// for request/response flows it is the completion time.
	FCT sim.Time

	PacketsSent      uint64
	PacketsDelivered uint64
	PacketsDropped   uint64
	BytesDelivered   uint64
	// MaxHops is the longest delivered path, in forwarding elements.
	MaxHops int
	// SumLatency accumulates delivery latencies; mean is
	// SumLatency / PacketsDelivered.
	SumLatency sim.Time
	// DropsByClass attributes drops to bounded reason classes
	// (DropQueueFull, DropLinkDown, ...).
	DropsByClass map[string]uint64
	// FaultWindowDrops counts drops that landed inside a fault
	// degradation window (between a fault/repair transition and the
	// route reconvergence that follows it).
	FaultWindowDrops uint64
}

// MeanLatency returns the flow's mean delivery latency (0 if nothing
// was delivered).
func (f FlowStats) MeanLatency() sim.Time {
	if f.PacketsDelivered == 0 {
		return 0
	}
	return f.SumLatency / sim.Time(f.PacketsDelivered)
}

// FlowTracker aggregates per-flow telemetry from probe events. Create
// one with NewFlowTracker, attach it with SetProbe (combine with
// Probes). Like every Probe it runs synchronously inside the event
// loop and is not safe for concurrent use.
type FlowTracker struct {
	flows map[routing.FlowID]*FlowStats

	// degraded counts fault transitions whose reconvergence is still
	// pending; drops while degraded > 0 are fault-window drops.
	degraded int
}

// NewFlowTracker returns an empty tracker.
func NewFlowTracker() *FlowTracker {
	return &FlowTracker{flows: make(map[routing.FlowID]*FlowStats)}
}

// flow returns the record for id, creating it at time now.
func (t *FlowTracker) flow(id routing.FlowID, now sim.Time) *FlowStats {
	f := t.flows[id]
	if f == nil {
		f = &FlowStats{
			Flow: id, FirstSend: now, LastActivity: now,
			DropsByClass: make(map[string]uint64),
		}
		t.flows[id] = f
	}
	return f
}

// PacketEnqueued implements Probe. Hops == 0 identifies the source
// enqueue — the packet's injection into the network.
func (t *FlowTracker) PacketEnqueued(e QueueEvent) {
	if e.Packet.Hops != 0 {
		return
	}
	t.flow(e.Packet.Flow, e.Packet.Created).PacketsSent++
}

// PacketTransmitted implements Probe (no-op: per-hop transmissions do
// not change flow aggregates).
func (t *FlowTracker) PacketTransmitted(QueueEvent) {}

// PacketDelivered implements Probe.
func (t *FlowTracker) PacketDelivered(d Delivery) {
	f := t.flow(d.Packet.Flow, d.Packet.Created)
	f.PacketsDelivered++
	f.BytesDelivered += uint64(d.Packet.Size)
	f.SumLatency += d.Latency
	if d.At > f.LastActivity {
		f.LastActivity = d.At
	}
	if d.Packet.Hops > f.MaxHops {
		f.MaxHops = d.Packet.Hops
	}
}

// PacketDropped implements Probe.
func (t *FlowTracker) PacketDropped(d Drop) {
	f := t.flow(d.Packet.Flow, d.Packet.Created)
	f.PacketsDropped++
	f.DropsByClass[d.Code.Class()]++
	if d.At > f.LastActivity {
		f.LastActivity = d.At
	}
	if t.degraded > 0 {
		f.FaultWindowDrops++
	}
}

// FaultChanged implements FaultObserver: each fault or repair
// transition opens a degradation window that the following
// reconvergence closes; drops inside any open window are attributed as
// fault-window drops.
func (t *FlowTracker) FaultChanged(c FaultChange) {
	if c.Reconverged {
		if t.degraded > 0 {
			t.degraded--
		}
		return
	}
	t.degraded++
}

// Flows returns every tracked flow in (FirstSend, Flow) order, with
// FCT filled in. The snapshot is a copy; mutating it does not affect
// the tracker.
func (t *FlowTracker) Flows() []FlowStats {
	out := make([]FlowStats, 0, len(t.flows))
	for _, f := range t.flows {
		out = append(out, t.snapshotFlow(f))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstSend != out[j].FirstSend {
			return out[i].FirstSend < out[j].FirstSend
		}
		return out[i].Flow < out[j].Flow
	})
	return out
}

func (t *FlowTracker) snapshotFlow(f *FlowStats) FlowStats {
	s := *f
	s.FCT = s.LastActivity - s.FirstSend
	s.DropsByClass = make(map[string]uint64, len(f.DropsByClass))
	for k, v := range f.DropsByClass {
		s.DropsByClass[k] = v
	}
	return s
}

// Table returns the per-flow table "flows", in Flows' order:
// flow,first_send_ps,last_activity_ps,fct_ps,sent,delivered,dropped,
// bytes,max_hops,mean_latency_us,drops_by_class,fault_window_drops.
// drops_by_class is a semicolon-joined class=count list.
func (t *FlowTracker) Table() table.Table {
	flows := t.Flows()
	tb := table.New("flows", len(flows),
		"flow", "first_send_ps", "last_activity_ps", "fct_ps", "sent", "delivered",
		"dropped", "bytes", "max_hops", "mean_latency_us",
		"drops_by_class", "fault_window_drops")
	for _, f := range flows {
		tb.Append(table.Int(f.Flow), table.Int(f.FirstSend), table.Int(f.LastActivity), table.Int(f.FCT),
			table.Int(f.PacketsSent), table.Int(f.PacketsDelivered), table.Int(f.PacketsDropped),
			table.Int(f.BytesDelivered), table.Int(f.MaxHops),
			table.Fixed(f.MeanLatency().Micros(), 3), table.String(formatDropClasses(f.DropsByClass)),
			table.Int(f.FaultWindowDrops))
	}
	return tb
}

// formatDropClasses renders class=count pairs sorted by class.
func formatDropClasses(m map[string]uint64) string {
	if len(m) == 0 {
		return ""
	}
	classes := make([]string, 0, len(m))
	for c := range m {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, m[c]))
	}
	return strings.Join(parts, ";")
}
