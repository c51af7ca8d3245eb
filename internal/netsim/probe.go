package netsim

import (
	"fmt"
	"sort"

	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// PortRef identifies one directed link: the link and its transmitting
// endpoint.
type PortRef struct {
	Link topology.LinkID
	From topology.NodeID
}

// QueueEvent describes one packet passing through an output queue.
type QueueEvent struct {
	// At is the event's virtual time: for enqueues the instant the
	// packet joined the queue; for transmissions the instant its tail
	// left the port (which may lie after the probe call — the
	// transmitter commits to the completion time when it dequeues).
	At   sim.Time
	Port PortRef
	// QueuedBytes is the queue's depth after the event.
	QueuedBytes int
	Packet      Packet
}

// Probe observes the packet lifecycle inside a Network: every queue
// join, every transmission, every delivery, every drop. Attach one with
// Network.SetProbe. With no probe attached each hook site costs a
// single nil check, so the default is effectively free (see
// BenchmarkProbeOverhead).
//
// Probes run synchronously inside the event loop and must not call
// back into the Network or Engine.
type Probe interface {
	// PacketEnqueued fires when a packet joins an output queue.
	PacketEnqueued(QueueEvent)
	// PacketTransmitted fires when the transmitter dequeues a packet;
	// QueueEvent.At is the transmit-completion time.
	PacketTransmitted(QueueEvent)
	// PacketDelivered fires when a packet reaches its destination host.
	PacketDelivered(Delivery)
	// PacketDropped fires when a packet is lost (full queue, failed
	// link, no route, hop limit).
	PacketDropped(Drop)
}

// multiProbe fans lifecycle events out to several probes in order.
type multiProbe []Probe

func (m multiProbe) PacketEnqueued(e QueueEvent) {
	for _, p := range m {
		p.PacketEnqueued(e)
	}
}
func (m multiProbe) PacketTransmitted(e QueueEvent) {
	for _, p := range m {
		p.PacketTransmitted(e)
	}
}
func (m multiProbe) PacketDelivered(d Delivery) {
	for _, p := range m {
		p.PacketDelivered(d)
	}
}
func (m multiProbe) PacketDropped(d Drop) {
	for _, p := range m {
		p.PacketDropped(d)
	}
}

// FaultChanged implements FaultObserver, forwarding to the members that
// observe faults.
func (m multiProbe) FaultChanged(c FaultChange) {
	for _, p := range m {
		if fo, ok := p.(FaultObserver); ok {
			fo.FaultChanged(c)
		}
	}
}

// Probes combines several probes into one; events fan out in argument
// order. Nil entries are skipped; with zero non-nil probes it returns
// nil (no probe).
func Probes(ps ...Probe) Probe {
	var m multiProbe
	for _, p := range ps {
		if p != nil {
			m = append(m, p)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

// TraceOp is the kind of a TraceEvent.
type TraceOp uint8

const (
	TraceEnqueue TraceOp = iota
	TraceTransmit
	TraceDeliver
	TraceDrop
	// TraceFault marks a fault-injection transition (cut, repair,
	// reconvergence) rather than a packet event; Packet and Flow are 0.
	TraceFault
)

func (op TraceOp) String() string {
	switch op {
	case TraceEnqueue:
		return "enqueue"
	case TraceTransmit:
		return "transmit"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	case TraceFault:
		return "fault"
	}
	return fmt.Sprintf("TraceOp(%d)", uint8(op))
}

// TraceEvent is one recorded step of a packet's life.
type TraceEvent struct {
	At     sim.Time
	Op     TraceOp
	Packet uint64
	Flow   routing.FlowID
	// Link and From locate the output port (enqueue/transmit); both are
	// -1 for deliveries and for drops that never reached a queue.
	Link topology.LinkID
	From topology.NodeID
	// Hops is the packet's hop count at the time of the event.
	Hops int
	// Reason is set on drops.
	Reason string
}

// TraceRecorder is a bounded packet trace: it implements Probe and
// keeps the first max lifecycle events of a run.
type TraceRecorder struct {
	max       int
	events    []TraceEvent
	truncated uint64
}

// NewTraceRecorder returns a recorder that keeps at most max events
// (max <= 0 means an unbounded trace — only for small runs).
func NewTraceRecorder(max int) *TraceRecorder { return &TraceRecorder{max: max} }

func (t *TraceRecorder) add(e TraceEvent) {
	if t.max > 0 && len(t.events) >= t.max {
		t.truncated++
		return
	}
	t.events = append(t.events, e)
}

// PacketEnqueued implements Probe.
func (t *TraceRecorder) PacketEnqueued(e QueueEvent) {
	t.add(TraceEvent{At: e.At, Op: TraceEnqueue, Packet: e.Packet.ID, Flow: e.Packet.Flow,
		Link: e.Port.Link, From: e.Port.From, Hops: e.Packet.Hops})
}

// PacketTransmitted implements Probe.
func (t *TraceRecorder) PacketTransmitted(e QueueEvent) {
	t.add(TraceEvent{At: e.At, Op: TraceTransmit, Packet: e.Packet.ID, Flow: e.Packet.Flow,
		Link: e.Port.Link, From: e.Port.From, Hops: e.Packet.Hops})
}

// PacketDelivered implements Probe.
func (t *TraceRecorder) PacketDelivered(d Delivery) {
	t.add(TraceEvent{At: d.At, Op: TraceDeliver, Packet: d.Packet.ID, Flow: d.Packet.Flow,
		Link: -1, From: -1, Hops: d.Packet.Hops})
}

// PacketDropped implements Probe.
func (t *TraceRecorder) PacketDropped(d Drop) {
	t.add(TraceEvent{At: d.At, Op: TraceDrop, Packet: d.Packet.ID, Flow: d.Packet.Flow,
		Link: -1, From: -1, Hops: d.Packet.Hops, Reason: d.Reason()})
}

// FaultChanged implements FaultObserver: the degradation window shows
// up in the trace as one row per affected link (reason "fail" or
// "repair") and a single Link=-1 row when routes reconverge.
func (t *TraceRecorder) FaultChanged(c FaultChange) {
	if c.Reconverged {
		reason := fmt.Sprintf("reconverged (%d links down)", c.DeadLinks)
		t.add(TraceEvent{At: c.At, Op: TraceFault, Link: -1, From: -1, Reason: reason})
		return
	}
	reason := "fail: " + c.Event.String()
	if c.Repair {
		reason = "repair: " + c.Event.String()
	}
	for _, l := range c.Links {
		t.add(TraceEvent{At: c.At, Op: TraceFault, Link: l, From: -1, Reason: reason})
	}
}

// Truncated reports how many events the bound discarded.
func (t *TraceRecorder) Truncated() uint64 { return t.truncated }

// Table returns the trace as the table "trace", one row per event:
// at_ps,op,packet,flow,link,from,hops,reason (empty but for drops and
// fault rows, whose reasons can carry commas and quotes). The recorder
// keeps execution order, which is not time order — a transmit row is
// written when the frame is dequeued and stamped with the later instant
// its tail leaves — so the rows are sorted by traceLess.
func (t *TraceRecorder) Table() table.Table {
	evs := append([]TraceEvent(nil), t.events...)
	sort.SliceStable(evs, func(i, j int) bool { return traceLess(evs[i], evs[j]) })
	tb := table.New("trace", len(evs), "at_ps", "op", "packet", "flow", "link", "from", "hops", "reason")
	for _, e := range evs {
		tb.Append(table.Int(e.At), table.String(e.Op.String()), table.Int(e.Packet), table.Int(e.Flow),
			table.Int(e.Link), table.Int(e.From), table.Int(e.Hops), table.String(e.Reason))
	}
	return tb
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

// QueueSample is one periodic observation of a directed link.
type QueueSample struct {
	At   sim.Time
	Port PortRef
	// QueuedBytes is the instantaneous output-queue depth.
	QueuedBytes int
	// Utilization is the port's busy fraction over the sample interval
	// just ended.
	Utilization float64
}

// QueueSampler periodically samples directed links' queue depth and
// utilization, and aggregates per-port depth statistics with
// metrics.Stats. It also implements Probe to track each port's
// high-water queue depth exactly (event-driven, between samples).
//
// Ports that were idle over a whole interval (empty queue, zero
// utilization) produce no sample row — on large topologies most ports
// are idle most of the time and recording them would swamp the trace —
// but their DepthStats still count every tick. Rows, which only a file
// sink reads, are bounded too: past maxQueueSamples they are counted
// (Truncated), not kept, as a TraceRecorder bounds its log.
//
// Create one with NewQueueSampler, optionally attach it as a probe for
// exact peaks, and call Start(until) before running the engine.
type QueueSampler struct {
	net      *Network
	interval sim.Time

	samples   []QueueSample
	max       int // maxQueueSamples; tests lower it
	truncated uint64
	// depth aggregates sampled queue depths per directed link index.
	depth []metrics.Stats
	// peak is the exact per-port high-water mark, maintained by the
	// Probe hooks when the sampler is attached as one.
	peak []int
	// lastBusy remembers each port's cumulative busy time at the
	// previous tick, to report per-interval utilization.
	lastBusy []sim.Time
}

// maxQueueSamples bounds the rows a QueueSampler keeps: 10 MB of them.
const maxQueueSamples = 1 << 18

// NewQueueSampler returns a sampler for n ticking every interval of
// virtual time.
func NewQueueSampler(n *Network, interval sim.Time) *QueueSampler {
	if interval <= 0 {
		panic(fmt.Sprintf("netsim: sampler interval %v", interval))
	}
	return &QueueSampler{
		net:      n,
		interval: interval,
		max:      maxQueueSamples,
		depth:    make([]metrics.Stats, len(n.dirs)),
		peak:     make([]int, len(n.dirs)),
		lastBusy: make([]sim.Time, len(n.dirs)),
	}
}

// Start schedules periodic sampling on the network's engine until the
// given virtual time (inclusive). Call it before running.
func (s *QueueSampler) Start(until sim.Time) {
	eng := s.net.eng
	var tick func()
	tick = func() {
		s.sample(eng.Now())
		if eng.Now()+s.interval <= until {
			eng.After(s.interval, tick)
		}
	}
	eng.After(s.interval, tick)
}

// sample records one observation per directed link.
func (s *QueueSampler) sample(now sim.Time) {
	for i := range s.net.dirs {
		dl := &s.net.dirs[i]
		dl.settle(s.net.eng)
		util := (dl.busyTime - s.lastBusy[i]).Seconds() / s.interval.Seconds()
		if util > 1 {
			util = 1 // a frame mid-flight can straddle the tick
		}
		s.lastBusy[i] = dl.busyTime
		s.depth[i].Add(float64(dl.queuedBytes))
		if dl.queuedBytes > s.peak[i] {
			s.peak[i] = dl.queuedBytes
		}
		if dl.queuedBytes == 0 && util == 0 {
			continue // idle interval: no row
		}
		if len(s.samples) >= s.max {
			s.truncated++
			continue
		}
		s.samples = append(s.samples, QueueSample{
			At: now, Port: s.net.portRef(i), QueuedBytes: dl.queuedBytes, Utilization: util,
		})
	}
}

// PacketEnqueued implements Probe: it keeps the exact high-water mark,
// which periodic sampling alone would miss.
func (s *QueueSampler) PacketEnqueued(e QueueEvent) {
	i := s.net.dirIndex(e.Port)
	if e.QueuedBytes > s.peak[i] {
		s.peak[i] = e.QueuedBytes
	}
}

// PacketTransmitted implements Probe (no-op).
func (s *QueueSampler) PacketTransmitted(QueueEvent) {}

// PacketDelivered implements Probe (no-op).
func (s *QueueSampler) PacketDelivered(Delivery) {}

// PacketDropped implements Probe (no-op).
func (s *QueueSampler) PacketDropped(Drop) {}

// DepthStats returns the sampled queue-depth statistics of one port.
func (s *QueueSampler) DepthStats(p PortRef) *metrics.Stats {
	return &s.depth[s.net.dirIndex(p)]
}

// PeakDepth returns the port's high-water queue depth: exact when the
// sampler is attached as a Probe, else the largest sampled depth.
func (s *QueueSampler) PeakDepth(p PortRef) int { return s.peak[s.net.dirIndex(p)] }

// Truncated reports how many rows the bound discarded.
func (s *QueueSampler) Truncated() uint64 { return s.truncated }

// Table returns the samples as the table "queue_samples":
// at_ps,link,from,queued_bytes,utilization (6 decimal places in CSV).
func (s *QueueSampler) Table() table.Table {
	tb := table.New("queue_samples", len(s.samples), "at_ps", "link", "from", "queued_bytes", "utilization")
	for _, smp := range s.samples {
		tb.Append(table.Int(smp.At), table.Int(smp.Port.Link), table.Int(smp.Port.From),
			table.Int(smp.QueuedBytes), table.Fixed(smp.Utilization, 6))
	}
	return tb
}

// portRef maps a directed-link index back to its (link, from) identity.
func (n *Network) portRef(di int) PortRef {
	l := n.g.Link(topology.LinkID(di / 2))
	from := l.A
	if di%2 == 1 {
		from = l.B
	}
	return PortRef{Link: l.ID, From: from}
}

// dirIndex maps a PortRef to the directed-link index.
func (n *Network) dirIndex(p PortRef) int {
	di := 2 * int(p.Link)
	if n.g.Link(p.Link).B == p.From {
		di++
	}
	return di
}
