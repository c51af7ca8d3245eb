// Package netsim is a packet-level discrete-event network simulator,
// rebuilt from the Quartz paper's description of its evaluation tool
// (§7): hosts emit packets, switches forward them with either
// cut-through or store-and-forward timing, and finite FIFO output
// queues produce the congestion behaviour the paper measures.
//
// The two switch models of Table 16 are provided as CiscoNexus7000
// (6 µs store-and-forward "CCS") and Arista7150 (380 ns cut-through
// "ULL").
//
// Observability: a Probe, attached with Network.SetProbe (Probes
// combines several), sees every enqueue, transmission, delivery, and
// drop; TraceRecorder keeps a bounded packet trace, FlowTracker folds
// it into per-flow telemetry, and QueueSampler takes periodic
// queue-depth and utilization samples. Each one's Table is in its own
// canonical order. The engine's Telemetry and the Delivered and
// Dropped counters summarize a run. With no probe attached the hooks
// cost one nil check each.
package netsim

import (
	"fmt"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// SwitchModel describes a switch's forwarding behaviour.
type SwitchModel struct {
	// Latency is the forwarding latency: for cut-through switches the
	// delay from head arrival to head departure; for store-and-forward
	// the processing delay after the full frame arrives.
	Latency sim.Time
	// CutThrough selects cut-through forwarding.
	CutThrough bool
	// ServiceTime is the per-packet forwarding occupancy of an output
	// port: a store-and-forward chassis moves one frame through a port
	// every ServiceTime even when the wire could go faster. Zero means
	// wire-speed (cut-through ASICs).
	ServiceTime sim.Time
	// BufferBytes is the output-queue capacity per port; packets
	// arriving at a full queue are dropped.
	BufferBytes int
}

// Switch models of Table 16.
var (
	// CiscoNexus7000 is the paper's core switch (CCS): 6 µs
	// store-and-forward, 768 10 Gb/s or 192 40 Gb/s ports. The 6 µs
	// per-frame figure is modelled as output-port service time: a
	// zero-load transit takes 6 µs and a port sustains one frame per
	// 6 µs, which is what produces the congestion behaviour of the
	// paper's three-tier baseline (§7.1).
	CiscoNexus7000 = SwitchModel{
		Latency:     0,
		CutThrough:  false,
		ServiceTime: 6 * sim.Microsecond,
		BufferBytes: 2 << 20,
	}
	// Arista7150 is the paper's ultra-low-latency switch (ULL): 380 ns
	// cut-through, 64 10 Gb/s or 16 40 Gb/s ports.
	Arista7150 = SwitchModel{
		Latency:     380 * sim.Nanosecond,
		CutThrough:  true,
		BufferBytes: 1 << 20,
	}
)

// HostModel describes end-host behaviour.
type HostModel struct {
	// NICLatency is added once at send and once at receive (Table 2:
	// 0.5 µs for a state-of-the-art NIC).
	NICLatency sim.Time
	// ForwardLatency is the OS stack delay when a *host* forwards a
	// packet (server-centric topologies like BCube; Table 2 cites 15 µs
	// for a standard network stack).
	ForwardLatency sim.Time
	// BufferBytes is the NIC output-queue capacity.
	BufferBytes int
}

// DefaultHost matches the paper's simulations, which isolate network
// latency: a low-latency NIC and the standard 15 µs stack penalty for
// server-side forwarding.
var DefaultHost = HostModel{
	NICLatency:     500 * sim.Nanosecond,
	ForwardLatency: 15 * sim.Microsecond,
	BufferBytes:    1 << 20,
}

// NoWaypoint marks a packet that routes directly to its destination.
const NoWaypoint topology.NodeID = -1

// Packet is one simulated frame.
type Packet struct {
	ID      uint64
	Flow    routing.FlowID
	Src     topology.NodeID
	Dst     topology.NodeID
	Size    int // bytes on the wire
	Created sim.Time
	// Waypoint is a VLB intermediate switch, or NoWaypoint.
	Waypoint topology.NodeID
	// Tag lets workloads group deliveries (task index, request/reply).
	Tag int
	// Priority selects the output-queue class: 0 is served strictly
	// before 1 (DeTail-style two-class scheduling, §2.1.4). Values
	// above 1 are clamped.
	Priority uint8
	// Hops counts forwarding elements traversed (switches and
	// forwarding hosts).
	Hops int
	// Hash is the flow's routing hash, computed once at injection
	// (Send) so per-hop ECMP/VLB selection does not rehash the flow ID
	// at every switch.
	Hash uint64
}

// Delivery reports a packet reaching its destination host.
type Delivery struct {
	Packet  Packet
	At      sim.Time
	Latency sim.Time
}

// DropCode identifies why a packet was dropped. The forwarding hot
// path records only the code (plus the link or routing error involved);
// the human-readable string is formatted lazily by Drop.Reason, so
// simulations without drop consumers never pay for formatting.
type DropCode uint8

const (
	DropCodeOther DropCode = iota
	DropCodeQueueFull
	DropCodeLinkDown
	DropCodeLinkCut
	DropCodeNoRoute
	DropCodeHopLimit
)

// Class maps the code to the drop-class labels used by FlowTracker and
// the metrics registry (DropQueueFull, DropLinkDown, ...).
func (c DropCode) Class() string {
	switch c {
	case DropCodeQueueFull:
		return DropQueueFull
	case DropCodeLinkDown:
		return DropLinkDown
	case DropCodeLinkCut:
		return DropLinkCut
	case DropCodeNoRoute:
		return DropNoRoute
	case DropCodeHopLimit:
		return DropHopLimit
	}
	return DropOther
}

// Drop reports a packet lost to a full queue or a routing failure.
type Drop struct {
	Packet Packet
	At     sim.Time
	Code   DropCode
	// Link is the link whose queue/failure caused the drop, or -1 when
	// no single link is involved (no-route, hop-limit).
	Link topology.LinkID
	// Err is the routing error behind a DropCodeNoRoute drop.
	Err error
}

// Reason renders the drop as the human-readable string older consumers
// logged. Formatting happens here, on demand, never on the hot path.
func (d Drop) Reason() string {
	switch d.Code {
	case DropCodeQueueFull:
		return fmt.Sprintf("queue full on link %d", d.Link)
	case DropCodeLinkDown:
		return fmt.Sprintf("link %d down", d.Link)
	case DropCodeLinkCut:
		return fmt.Sprintf("link %d cut", d.Link)
	case DropCodeNoRoute:
		return "no route: " + d.Err.Error()
	case DropCodeHopLimit:
		return "hop limit exceeded (routing loop?)"
	}
	return "dropped"
}

// Config assembles a Network.
type Config struct {
	Graph  *topology.Graph
	Router routing.Router
	// SwitchModel selects the model per switch; nil means Arista7150
	// everywhere.
	SwitchModel func(topology.Node) SwitchModel
	// Host is the end-host model; zero value means DefaultHost.
	Host HostModel
	// OnDeliver is an optional hook; a Probe sees drops.
	OnDeliver func(Delivery)
}

// maxHops aborts forwarding loops; no experiment topology has paths
// anywhere near this long.
const maxHops = 64

// nodeModel is a node as a hop sees it, so the packet path never asks
// the graph: a host, or a switch and its model.
type nodeModel struct {
	SwitchModel // zero for a host
	host        bool
}

// Network simulates packet forwarding on a topology.
type Network struct {
	g *topology.Graph

	models []nodeModel // per node
	host   HostModel
	dirs   []dirLink // 2*link + (0 if A->B else 1)

	// faults is the unified failure surface (lazily built by Faults).
	faults *FaultInjector

	// txDone is the shared transmit-completion action (see
	// txDoneAction); with the netEvent pool it keeps the steady-state
	// packet lifecycle allocation-free.
	txDone txDoneAction

	// A simulation executes on exactly one engine (DESIGN.md §11);
	// parallelism lives between simulations.
	eng    *sim.Engine
	router routing.Router

	// freeEv is the pooled-record free list, refilled from slabs, which
	// hold every record allocated so far (pooled of them); Reset relinks
	// them all, including records a RunUntil left stranded in queues.
	freeEv *netEvent
	slabs  [][]netEvent
	pooled int

	probe     Probe
	onDeliver func(Delivery)

	nextID    uint64
	delivered uint64
	dropped   uint64
}

// netEvent is the one pooled record a packet lives in from Send to
// delivery or drop. It is the scheduled event (sim.Action) while the
// packet is in a NIC, on a wire, or in a host's stack, and the element
// of the output FIFO while it waits for a port; arrive, forward and
// transmitNext mutate it in place and re-arm it for the next hop, so a
// hop moves a pointer rather than copying the 96-byte Packet through
// every call and queue slot. The Packet is copied out exactly once per
// consumer report (Delivery, Drop, QueueEvent), and only when a
// consumer is attached. Records come from a free list refilled a slab
// at a time, so a steady-state lifecycle allocates nothing.
type netEvent struct {
	n    *Network
	kind uint8
	// node is where the event fires, or the node whose port the record
	// is queued on.
	node topology.NodeID
	// ser is the occupancy of the link the packet last crossed — inbound
	// serialization for evArrive/evForward. While queued it is the
	// outbound occupancy (wire serialization or the forwarding engine's
	// per-frame service, whichever is longer), which becomes the next
	// hop's inbound value unchanged.
	ser sim.Time
	// ready and tailIn are valid while queued. ready is the earliest
	// instant the transmitter may start (switch processing complete; may
	// lie in the past for cut-through heads); tailIn is when the
	// packet's tail fully arrived at this node — the retransmission
	// cannot complete before it.
	ready  sim.Time
	tailIn sim.Time
	p      Packet
	next   *netEvent // free-list link, or FIFO link while queued
}

const (
	evArrive  uint8 = iota // packet tail reaches node after propagation
	evDeliver              // NIC receive (or loopback) completes
	evForward              // source NIC or host stack delay elapsed
)

// Run implements sim.Action.
func (ev *netEvent) Run(int64, int64) {
	n := ev.n
	switch ev.kind {
	case evArrive:
		n.arrive(ev)
	case evDeliver:
		n.deliver(ev)
	case evForward:
		n.forward(ev, n.eng.Now())
	}
}

// eventSlab is the fewest records one free-list refill allocates. A
// congested port holds a record per queued frame, so records are needed
// in bursts: each refill doubles the pool (and never adds fewer
// than eventSlab), which keeps a small network's footprint small and a
// congested one's refills logarithmic in its peak backlog.
const eventSlab = 64

// newEvent takes a record from the pool, refilling the pool with a slab
// when it is empty. The caller fills it in.
func (n *Network) newEvent() *netEvent {
	ev := n.freeEv
	if ev == nil {
		slab := make([]netEvent, max(eventSlab, n.pooled))
		n.slabs = append(n.slabs, slab)
		n.pooled += len(slab)
		for i := range slab {
			slab[i].n = n
			slab[i].next = ev
			ev = &slab[i]
		}
	}
	n.freeEv = ev.next
	ev.next = nil
	return ev
}

// freeEvent returns a record to the pool once its packet has been
// delivered or dropped.
func (n *Network) freeEvent(ev *netEvent) {
	ev.next = n.freeEv
	n.freeEv = ev
}

// txDoneAction completes a transmission when another frame is waiting
// behind it: Run's arguments encode the direction index and packet
// size, so the one value embedded in Network serves every port with
// zero allocation. A frame that leaves an empty queue behind schedules
// no completion at all — see dirLink.settle.
type txDoneAction struct{ n *Network }

func (t *txDoneAction) Run(di, size int64) {
	n := t.n
	dl := &n.dirs[di]
	dl.queuedBytes -= int(size)
	if dl.nextQueue() == nil {
		dl.busy = false // a fault flushed the queue behind the frame
		return
	}
	n.transmitNext(int(di))
}

// numPriorities is the number of output-queue classes per port.
const numPriorities = 2

// pktFIFO is an output queue: an intrusive singly-linked FIFO of the
// packets' own records, so enqueueing a frame stores one pointer and a
// queue of any depth needs no storage of its own.
type pktFIFO struct {
	head, tail *netEvent
}

func (q *pktFIFO) empty() bool { return q.head == nil }

func (q *pktFIFO) push(ev *netEvent) {
	ev.next = nil
	if q.tail == nil {
		q.head = ev
	} else {
		q.tail.next = ev
	}
	q.tail = ev
}

// pop removes the front record; the queue must not be empty.
func (q *pktFIFO) pop() *netEvent {
	ev := q.head
	q.head = ev.next
	if q.head == nil {
		q.tail = nil
	}
	ev.next = nil
	return ev
}

// dirLink is one direction of a link: its own transmitter and
// strict-priority output queues.
type dirLink struct {
	// What a hop needs to know about the port's own end, copied in when
	// the network is built so forward and transmitNext read this dirLink
	// and neither the graph nor the model table: the node at the far
	// end, and the sending switch's per-frame service time (zero on a
	// host's NIC).
	peer             topology.NodeID
	down, busy, lazy bool
	service          sim.Time

	rate        sim.Rate
	prop        sim.Time
	queuedBytes int
	capBytes    int

	queues [numPriorities]pktFIFO
	freeAt sim.Time

	// A frame that starts transmitting with nothing queued behind it
	// schedules no completion event: lazy records that its completion —
	// queuedBytes -= lazySize, busy = false, due at (freeAt, lazySeq) in
	// the engine's total order — has yet to be applied. settle applies
	// it the next time anyone looks at the port.
	lazySize int
	lazySeq  uint64

	drops     uint64
	txPackets uint64
	txBytes   uint64
	busyTime  sim.Time
}

// nextQueue returns the highest-priority queue holding a frame, or nil
// when nothing waits behind the transmitter.
func (dl *dirLink) nextQueue() *pktFIFO {
	for pri := range dl.queues {
		if !dl.queues[pri].empty() {
			return &dl.queues[pri]
		}
	}
	return nil
}

// settle applies the port's elided transmit completion if an eagerly
// scheduled one would have run by now — Passed decides a same-instant
// tie by schedule order exactly as the queue would have. Every reader of
// queuedBytes or busy settles first: forward, Network.QueuedBytes and
// the queue sampler.
func (dl *dirLink) settle(eng *sim.Engine) {
	if dl.lazy && eng.Passed(dl.freeAt, dl.lazySeq) {
		dl.queuedBytes -= dl.lazySize
		dl.busy = false
		dl.lazy = false
	}
}

// New builds a network simulator from cfg.
func New(cfg Config) (*Network, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("netsim: nil graph")
	}
	if cfg.Router == nil {
		return nil, fmt.Errorf("netsim: nil router")
	}
	host := cfg.Host
	if host == (HostModel{}) {
		host = DefaultHost
	}
	n := &Network{
		g:      cfg.Graph,
		host:   host,
		eng:    sim.NewEngine(),
		router: cfg.Router,
		models: make([]nodeModel, cfg.Graph.NumNodes()),
		dirs:   make([]dirLink, 2*cfg.Graph.NumLinks()),
	}
	for i := range n.models {
		node := cfg.Graph.Node(topology.NodeID(i))
		switch {
		case node.Kind == topology.Host:
			n.models[i].host = true
		case cfg.SwitchModel != nil:
			n.models[i].SwitchModel = cfg.SwitchModel(node)
		default:
			n.models[i].SwitchModel = Arista7150
		}
	}
	n.Reset(cfg.OnDeliver)
	return n, nil
}

// Reset returns n to the state New builds from the graph, router,
// switch models and host n was built with, with onDeliver as its
// delivery hook and no probe or fault injector: a run on the
// reset network is event for event the run on a new one. What earlier
// runs grew is kept — the port table, the packet-record slabs (every
// record back on the free list, including any a RunUntil left queued)
// and the engine's queue arrays — so a run no larger than those before
// it allocates none of them again. Pending events are discarded.
//
// Reset puts no state of the router back: reconvergence after a fault
// rewrites its tables (routing.Rerouter), so only a network that was
// never given a fault injector (Faults) may be reset onto a router
// other runs still use. See Recyclable.
func (n *Network) Reset(onDeliver func(Delivery)) {
	*n = Network{
		g: n.g, models: n.models, host: n.host, dirs: n.dirs,
		eng: n.eng, router: n.router, slabs: n.slabs, pooled: n.pooled,
		onDeliver: onDeliver,
	}
	n.txDone = txDoneAction{n: n}
	n.eng.Reset()
	for i := 0; i < n.g.NumLinks(); i++ {
		l := n.g.Link(topology.LinkID(i))
		for d, from := range [2]topology.NodeID{l.A, l.B} {
			n.dirs[2*i+d] = dirLink{
				rate: l.Rate, prop: l.Prop, capBytes: n.bufferOf(from), peer: l.Other(from),
				service: n.models[from].ServiceTime,
			}
		}
	}
	for _, slab := range n.slabs {
		for i := range slab {
			slab[i] = netEvent{n: n, next: n.freeEv}
			n.freeEv = &slab[i]
		}
	}
}

// Recyclable reports whether n may be Reset for another run on the
// same router: no fault injector was ever obtained (its reconvergence
// may have rewritten the router's tables) and no probe is attached (an
// observer may still hold the network).
func (n *Network) Recyclable() bool {
	return n.faults == nil && n.probe == nil
}

func (n *Network) bufferOf(node topology.NodeID) int {
	if n.models[node].host {
		return n.host.BufferBytes
	}
	return n.models[node].BufferBytes
}

// Engine returns the simulation engine driving this network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Scheduler is a synonym of Engine, kept for the repository's benchmark
// (bench/, frozen by BENCHMARK.json), its only caller.
func (n *Network) Scheduler() *sim.Engine { return n.eng }

// Run processes events until none remain.
func (n *Network) Run() { n.eng.Run() }

// SetProbe attaches a lifecycle observer (nil, the default, detaches
// it and costs nothing); it replaces any probe attached before. Use
// Probes to combine several. It is the one attach point.
func (n *Network) SetProbe(p Probe) { n.probe = p }

// Graph returns the simulated topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Delivered returns the count of packets delivered so far.
func (n *Network) Delivered() uint64 { return n.delivered }

// Dropped returns the count of packets dropped so far.
func (n *Network) Dropped() uint64 { return n.dropped }

// Unicast injects a packet at its source host at the current simulation
// time, routing directly to dst. It returns the packet ID.
func (n *Network) Unicast(flow routing.FlowID, src, dst topology.NodeID, size, tag int) uint64 {
	return n.Send(Packet{Flow: flow, Src: src, Dst: dst, Size: size, Tag: tag, Waypoint: NoWaypoint})
}

// Send injects a packet at its source host at the current simulation
// time. The caller fills Flow, Src, Dst, Size, Tag and Waypoint
// (NoWaypoint for direct routing); ID, Created and Hops are managed by
// the network. It returns the packet ID.
func (n *Network) Send(pkt Packet) uint64 {
	if pkt.Size <= 0 {
		panic(fmt.Sprintf("netsim: packet size %d", pkt.Size))
	}
	if !n.models[pkt.Src].host {
		panic(fmt.Sprintf("netsim: source %d is not a host", pkt.Src))
	}
	ev := n.newEvent()
	ev.node, ev.ser, ev.p = pkt.Src, 0, pkt
	p := &ev.p
	n.nextID++
	p.ID = n.nextID
	p.Created = n.eng.Now()
	p.Hops = 0
	p.Hash = routing.PacketHash(p.Flow)
	if p.Src == p.Dst {
		// Loopback: deliver after the stack round trip.
		ev.kind = evDeliver
		n.eng.AfterAction(2*n.host.NICLatency, ev, 0, 0)
		return p.ID
	}
	// NIC send-side latency, then onto the wire.
	ev.kind = evForward
	n.eng.AfterAction(n.host.NICLatency, ev, 0, 0)
	return p.ID
}

// forward routes ev's packet out of ev.node at readyTime (the time its
// tail is ready to begin serialization on the chosen output) and queues
// the record on that port.
func (n *Network) forward(ev *netEvent, readyTime sim.Time) {
	node, p := ev.node, &ev.p
	if p.Hops >= maxHops {
		n.drop(ev, DropCodeHopLimit, -1, nil)
		return
	}
	if node == p.Waypoint {
		p.Waypoint = NoWaypoint
	}
	port, err := n.router.NextPort(node, routing.PacketMeta{
		Flow: p.Flow, Seq: p.ID, Src: p.Src, Dst: p.Dst, Waypoint: p.Waypoint,
		Hash: p.Hash,
	})
	if err != nil {
		n.drop(ev, DropCodeNoRoute, -1, err)
		return
	}
	di := 2 * int(port.Link)
	if n.dirs[di].peer != port.Peer {
		di++ // node is the link's B end
	}
	dl := &n.dirs[di]
	if dl.down {
		dl.drops++
		n.drop(ev, DropCodeLinkDown, port.Link, nil)
		return
	}
	dl.settle(n.eng)
	if dl.queuedBytes+p.Size > dl.capBytes {
		dl.drops++
		n.drop(ev, DropCodeQueueFull, port.Link, nil)
		return
	}
	ser := dl.rate.Serialize(p.Size)
	// Store-and-forward chassis ports are paced by the forwarding engine
	// when that is slower than the wire.
	if dl.service > ser {
		ser = dl.service
	}
	dl.queuedBytes += p.Size
	pri := int(p.Priority)
	if pri >= numPriorities {
		pri = numPriorities - 1
	}
	ev.ready, ev.tailIn, ev.ser = readyTime, n.eng.Now(), ser
	dl.queues[pri].push(ev)
	if n.probe != nil {
		n.probe.PacketEnqueued(QueueEvent{
			At: n.eng.Now(), Port: PortRef{Link: port.Link, From: node},
			QueuedBytes: dl.queuedBytes, Packet: *p,
		})
	}
	switch {
	case !dl.busy:
		n.transmitNext(di)
	case dl.lazy:
		// The port is mid-frame and its completion was elided: arm it
		// now, under the order number it reserved, so this frame starts
		// exactly when an eagerly scheduled completion would start it.
		dl.lazy = false
		n.eng.ScheduleReserved(dl.freeAt, dl.lazySeq, &n.txDone, int64(di), int64(dl.lazySize))
	}
}

// transmitNext starts the transmitter on the next queued packet,
// serving strict priority order, and re-arms the packet's record as the
// arrival at the far end. At least one frame must be queued.
func (n *Network) transmitNext(di int) {
	dl := &n.dirs[di]
	ev := dl.nextQueue().pop()
	dl.busy = true
	start := dl.freeAt
	if ev.ready > start {
		start = ev.ready
	}
	ser := ev.ser
	endTx := start + ser
	if endTx < ev.tailIn {
		// A cut-through head start cannot let the tail leave before it
		// has fully arrived.
		endTx = ev.tailIn
	}
	if now := n.eng.Now(); endTx < now {
		endTx = now
	}
	size := ev.p.Size
	dl.freeAt = endTx
	dl.txPackets++
	dl.txBytes += uint64(size)
	dl.busyTime += ser
	if n.probe != nil {
		// QueuedBytes reflects the depth once this packet's tail leaves,
		// which is also when At falls.
		n.probe.PacketTransmitted(QueueEvent{
			At: endTx, Port: n.portRef(di), QueuedBytes: dl.queuedBytes - size, Packet: ev.p,
		})
	}
	// Completion first, then arrival — the schedule order older closure
	// code used, preserved so event ordering (and every result) is
	// byte-identical. With nothing queued behind this frame the
	// completion is only a reservation of its place in that order (see
	// dirLink.settle); every other event keeps its (time, order).
	if dl.nextQueue() == nil {
		dl.lazy, dl.lazySize, dl.lazySeq = true, size, n.eng.ReserveSeq()
	} else {
		n.eng.ScheduleAction(endTx, &n.txDone, int64(di), int64(size))
	}
	ev.kind, ev.node = evArrive, dl.peer
	n.eng.ScheduleAction(endTx+dl.prop, ev, 0, 0)
}

// arrive handles the tail of ev's packet reaching ev.node at the
// current simulation time, having been serialized over ev.ser.
func (n *Network) arrive(ev *netEvent) {
	node, p := ev.node, &ev.p
	p.Hops++
	if node == p.Dst {
		// NIC receive-side latency.
		ev.kind = evDeliver
		n.eng.AfterAction(n.host.NICLatency, ev, 0, 0)
		return
	}
	m := &n.models[node]
	if m.host {
		// Server-side forwarding (BCube-style): pay the OS stack.
		ev.kind = evForward
		n.eng.AfterAction(n.host.ForwardLatency, ev, 0, 0)
		return
	}
	ready := n.eng.Now() + m.Latency
	if m.CutThrough {
		// The head arrived ev.ser ago and may leave m.Latency later. The
		// tail cannot leave the output before it has arrived here;
		// transmitNext clamps the transmit completion to now. (A
		// store-and-forward switch waits for the full frame, then
		// processes.)
		ready -= ev.ser
	}
	n.forward(ev, ready)
}

// deliver and drop end a packet's life: the record goes back to the
// pool before any handler runs, so a handler that sends can reuse it,
// and the Packet is copied out only if a handler is there to read it.

func (n *Network) deliver(ev *netEvent) {
	n.delivered++
	if n.onDeliver == nil && n.probe == nil {
		n.freeEvent(ev)
		return
	}
	now := n.eng.Now()
	d := Delivery{Packet: ev.p, At: now, Latency: now - ev.p.Created}
	n.freeEvent(ev)
	if n.onDeliver != nil {
		n.onDeliver(d)
	}
	if n.probe != nil {
		n.probe.PacketDelivered(d)
	}
}

func (n *Network) drop(ev *netEvent, code DropCode, link topology.LinkID, err error) {
	n.dropped++
	if n.probe == nil {
		n.freeEvent(ev)
		return
	}
	d := Drop{Packet: ev.p, At: n.eng.Now(), Code: code, Link: link, Err: err}
	n.freeEvent(ev)
	n.probe.PacketDropped(d)
}
