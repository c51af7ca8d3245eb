package netsim

// Observer is the single attach surface for run observability: one
// Network.Observe call wires a TraceRecorder, a FlowTracker and a
// QueueSampler — three attach points with different lifecycles — and
// the Observer hands back their views.

import (
	"sort"

	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// ObserveOptions selects what Network.Observe attaches. The zero value
// attaches nothing; set the fields for the views the run needs.
type ObserveOptions struct {
	// Trace records per-packet lifecycle events.
	Trace bool
	// TraceLimit bounds the recorder's event count (<= 0 means
	// unbounded — only for small runs).
	TraceLimit int

	// Flows aggregates per-flow telemetry.
	Flows bool

	// SampleEvery enables periodic queue sampling at this virtual
	// interval.
	SampleEvery sim.Time

	// Until is the virtual horizon (inclusive) for sampler ticks.
	// Required when SampleEvery is set.
	Until sim.Time

	// Spans, when set, is the execution-span recorder Observer.FlowSpans
	// renders the flow table onto after the run. Use a
	// trace.NewFlightRecorder to bound long runs.
	Spans *trace.Recorder
}

// Observer holds the attachments made by Network.Observe. Trace and
// Flows are post-run views: call them after Run returns.
type Observer struct {
	trace   *TraceRecorder
	flows   *FlowTracker
	sampler *QueueSampler
	spans   *trace.Recorder
}

// Observe attaches the selected observability and returns the Observer.
// Call it once, after New and before running. A probe already attached
// with SetProbe is preserved and fires first.
func (n *Network) Observe(o ObserveOptions) *Observer {
	if o.SampleEvery > 0 && o.Until <= 0 {
		panic("netsim: ObserveOptions.Until is required for sampler ticks")
	}
	obs := &Observer{spans: o.Spans}
	if o.SampleEvery > 0 {
		obs.sampler = NewQueueSampler(n, o.SampleEvery)
		obs.sampler.Start(o.Until)
	}
	probes := []Probe{n.probe}
	if o.Trace {
		obs.trace = NewTraceRecorder(o.TraceLimit)
		probes = append(probes, obs.trace)
	}
	if o.Flows {
		obs.flows = NewFlowTracker()
		probes = append(probes, obs.flows)
	}
	if obs.sampler != nil {
		// As a probe the sampler maintains exact per-port peak depths.
		probes = append(probes, obs.sampler)
	}
	n.SetProbe(Probes(probes...))
	return obs
}

// Trace returns the recorded trace re-sorted by event content. The
// recorder itself is in execution order, which is not time order — a
// transmit row is written when the frame is dequeued and stamped with
// the later instant its tail leaves — so the exported trace is ordered
// by traceLess instead. Returns nil when Observe ran without Trace.
func (o *Observer) Trace() *TraceRecorder {
	if o.trace == nil {
		return nil
	}
	evs := append([]TraceEvent(nil), o.trace.events...)
	sort.SliceStable(evs, func(i, j int) bool { return traceLess(evs[i], evs[j]) })
	return &TraceRecorder{events: evs, truncated: o.trace.truncated}
}

// traceLess is a total order on trace events by content: timestamp
// first, then every remaining field. Events that compare equal are
// byte-identical rows.
func traceLess(a, b TraceEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.Packet != b.Packet {
		return a.Packet < b.Packet
	}
	if a.Flow != b.Flow {
		return a.Flow < b.Flow
	}
	if a.Link != b.Link {
		return a.Link < b.Link
	}
	if a.From != b.From {
		return a.From < b.From
	}
	if a.Hops != b.Hops {
		return a.Hops < b.Hops
	}
	return a.Reason < b.Reason
}

// Flows returns the flow tracker with its table in canonical order —
// (FirstSend, Flow) ascending, where a bare tracker breaks FirstSend
// ties by insertion. Returns nil when Observe ran without Flows.
func (o *Observer) Flows() *FlowTracker {
	if o.flows == nil {
		return nil
	}
	o.flows.sortFlows()
	return o.flows
}

// Sampler returns the queue sampler (nil unless SampleEvery was set).
func (o *Observer) Sampler() *QueueSampler { return o.sampler }

// FlowSpans renders the flow table as virtual-only spans on the
// Observer's recorder: one "flow" span per flow in the "net" category,
// Track = flow ID, spanning FirstSend→LastActivity on the virtual
// clock, annotated with sent/delivered/dropped/bytes.
// Wall fields stay zero, so the Chrome export places them on the
// virtual timeline. Requires Observe to have run with both Flows and
// Spans; call after the run. Returns the number of flow spans recorded.
func (o *Observer) FlowSpans() int {
	if o.spans == nil || o.flows == nil {
		return 0
	}
	flows := o.Flows().Flows()
	for _, f := range flows {
		o.spans.Add(trace.Span{
			Name: "flow", Cat: "net", Track: int(f.Flow),
			Virt: int64(f.FirstSend), VirtEnd: int64(f.LastActivity),
		}.
			Annotate("sent", int64(f.PacketsSent)).
			Annotate("delivered", int64(f.PacketsDelivered)).
			Annotate("dropped", int64(f.PacketsDropped)).
			Annotate("bytes", int64(f.BytesDelivered)))
	}
	return len(flows)
}
