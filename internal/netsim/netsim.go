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
// Observability: a Probe (Config.Probe / Network.SetProbe) sees every
// enqueue, transmission, delivery, and drop; TraceRecorder keeps a
// bounded per-packet trace, QueueSampler takes periodic queue-depth and
// utilization samples, and Network.Telemetry summarizes a run. With no
// probe attached the hooks cost one nil check each.
package netsim

import (
	"fmt"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// SwitchModel describes a switch's forwarding behaviour.
type SwitchModel struct {
	// Name labels the model in reports ("ULL", "CCS", ...).
	Name string
	// Latency is the forwarding latency: for cut-through switches the
	// delay from head arrival to head departure; for store-and-forward
	// the processing delay after the full frame arrives.
	Latency sim.Time
	// CutThrough selects cut-through forwarding.
	CutThrough bool
	// ECNThresholdBytes marks packets (Packet.Marked) when the output
	// queue they join exceeds this depth — DCTCP-style explicit
	// congestion notification (§2.1.4). Zero disables marking.
	ECNThresholdBytes int
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
		Name:        "CCS",
		Latency:     0,
		CutThrough:  false,
		ServiceTime: 6 * sim.Microsecond,
		BufferBytes: 2 << 20,
	}
	// Arista7150 is the paper's ultra-low-latency switch (ULL): 380 ns
	// cut-through, 64 10 Gb/s or 16 40 Gb/s ports.
	Arista7150 = SwitchModel{
		Name:        "ULL",
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
	// UserData is carried untouched for transports (e.g. TCP sequence
	// numbers).
	UserData uint64
	// Priority selects the output-queue class: 0 is served strictly
	// before 1 (DeTail-style two-class scheduling, §2.1.4). Values
	// above 1 are clamped.
	Priority uint8
	// Marked is set by ECN-enabled switches when the packet joined a
	// queue above the marking threshold.
	Marked bool
	// Hops counts forwarding elements traversed (switches and
	// forwarding hosts).
	Hops int
	// Hash is the flow's routing hash, computed once at injection
	// (Send) so per-hop ECMP/VLB/KSP selection does not rehash the flow
	// ID at every switch.
	Hash uint64
	// Path is the node sequence the packet traversed (source through
	// destination), recorded only when Config.RecordPaths is set.
	Path []topology.NodeID
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
	// Engine to schedule on; New creates one when nil. Mutually
	// exclusive with Shards.
	Engine *sim.Engine
	// Shards >= 1 selects sharded parallel execution: the topology is
	// partitioned into that many shards (hosts follow their ToR; see
	// PartitionByRing), each with its own event loop, synchronized
	// conservatively with the minimum cross-shard propagation delay as
	// lookahead. Results are identical for every shard count K >= 1
	// (the "sharded family"), but differ from the legacy Shards == 0
	// single-engine mode, which keeps its historical packet-ID
	// sequence. Run control must then go through Scheduler/RunUntil
	// rather than Engine.
	Shards int
	// SwitchModel selects the model per switch; nil means Arista7150
	// everywhere.
	SwitchModel func(topology.Node) SwitchModel
	// Host is the end-host model; zero value means DefaultHost.
	Host HostModel
	// OnDeliver and OnDrop are optional hooks. In sharded mode they
	// are called from shard goroutines concurrently and must be safe
	// for that — or use OnDeliverSharded, whose shard argument lets a
	// per-shard accumulator (traffic.ShardedHarness) stay lock-free.
	OnDeliver func(Delivery)
	OnDrop    func(Drop)
	// OnDeliverSharded, when set in sharded mode, is called instead of
	// OnDeliver with the delivering shard's index. Deliveries for one
	// shard index never run concurrently with each other.
	OnDeliverSharded func(shard int, d Delivery)
	// Probe observes the full packet lifecycle (enqueue, transmit,
	// deliver, drop); nil — the default — costs nothing. Combine
	// several with Probes. In sharded mode the same probe instance is
	// attached to every shard and must be concurrency-safe; prefer
	// Observe, which builds per-shard observers and merges them.
	Probe Probe
	// RecordPaths attaches the traversed node sequence to every packet
	// (Packet.Path) — for route validation and debugging; it allocates
	// per hop, so leave it off in large runs.
	RecordPaths bool
}

// maxHops aborts forwarding loops; no experiment topology has paths
// anywhere near this long.
const maxHops = 64

// Network simulates packet forwarding on a topology.
type Network struct {
	g *topology.Graph

	models []SwitchModel // per node; valid for switches
	host   HostModel
	dirs   []dirLink // 2*link + (0 if A->B else 1)
	record bool

	// faults is the unified failure surface (lazily built by Faults).
	faults *FaultInjector

	// txDone is the shared transmit-completion action (see
	// txDoneAction); with the per-shard netEvent pools it keeps the
	// steady-state packet lifecycle allocation-free.
	txDone txDoneAction

	// Execution. Exactly one of eng (legacy single engine) and sharded
	// is non-nil. shards always has at least one entry: in legacy mode
	// shards[0] wraps eng and the lookup tables map everything to
	// shard 0, so the hot path is shared between modes.
	eng         *sim.Engine
	sharded     *sim.ShardedEngine
	shards      []*netShard
	shardOfNode []int32 // node  -> owning shard
	shardOfDir  []int32 // dir   -> owning shard (the transmitting endpoint's)

	// nextID is the legacy global packet-ID sequence; hostSeq the
	// sharded family's per-source sequence (IDs must not depend on
	// shard interleaving, since ECMP per-packet spray hashes them).
	nextID  uint64
	hostSeq []uint64

	// routersCloned records whether each shard got its own router copy
	// (routing.ShardCloner), so rerouteAll knows how many to rebuild.
	routersCloned bool
}

// netShard is the per-shard mutable half of Network: everything the
// packet hot path writes. Each instance is touched only by its own
// shard's goroutine during windows (and by the coordinator during
// global phases, with shards parked), so none of it needs atomics. In
// legacy mode there is exactly one, aliased to the single engine.
type netShard struct {
	idx    int
	eng    *sim.Engine
	router routing.Router

	// freeEv is this shard's pooled-record free list. Records migrate
	// between shards with cross-shard packets (taken by the sender's
	// shard, freed by the shard that delivers or drops); the barrier
	// orders those accesses. pooled counts the records this shard has
	// allocated so far.
	freeEv *netEvent
	pooled int

	probe     Probe
	onDeliver func(Delivery)
	onDrop    func(Drop)

	delivered uint64
	dropped   uint64
}

// netEvent is the one pooled record a packet lives in from Send to
// delivery or drop. It is the scheduled event (sim.Action) while the
// packet is in a NIC, on a wire, or in a host's stack, and the element
// of the output FIFO while it waits for a port; arrive, forward and
// transmitNext mutate it in place and re-arm it for the next hop, so a
// hop moves a pointer rather than copying the 128-byte Packet through
// every call and queue slot. The Packet is copied out exactly once per
// consumer report (Delivery, Drop, QueueEvent), and only when a
// consumer is attached. Records come from per-shard free lists refilled
// a slab at a time, so a steady-state lifecycle allocates nothing.
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

// Run implements sim.Action. The event always executes on the shard
// owning ev.node (cross-shard arrivals travel through the
// synchronizer's rings into that shard's engine), so the handlers touch
// that shard's state single-threaded.
func (ev *netEvent) Run(int64, int64) {
	n := ev.n
	sh := n.shards[n.shardOfNode[ev.node]]
	switch ev.kind {
	case evArrive:
		n.arrive(sh, ev)
	case evDeliver:
		n.deliver(sh, ev)
	case evForward:
		n.forward(sh, ev, sh.eng.Now())
	}
}

// eventSlab is the fewest records one free-list refill allocates. A
// congested port holds a record per queued frame, so records are needed
// in bursts: each refill doubles the shard's pool (and never adds fewer
// than eventSlab), which keeps a small network's footprint small and a
// congested one's refills logarithmic in its peak backlog.
const eventSlab = 64

// newEvent takes a record from the shard's pool, refilling the pool
// with a slab when it is empty. The caller fills it in.
func (n *Network) newEvent(sh *netShard) *netEvent {
	ev := sh.freeEv
	if ev == nil {
		slab := make([]netEvent, max(eventSlab, sh.pooled))
		sh.pooled += len(slab)
		for i := range slab {
			slab[i].n = n
			slab[i].next = ev
			ev = &slab[i]
		}
	}
	sh.freeEv = ev.next
	ev.next = nil
	return ev
}

// freeEvent returns a record to the shard's pool once its packet has
// been delivered or dropped.
func (sh *netShard) freeEvent(ev *netEvent) {
	ev.p.Path = nil // the one reference a Packet holds
	ev.next = sh.freeEv
	sh.freeEv = ev
}

// txDoneAction completes a transmission when another frame is waiting
// behind it: Run's arguments encode the direction index and packet
// size, so the one value embedded in Network serves every port with
// zero allocation. It always runs on the shard owning the direction
// (the transmit side scheduled it locally). A frame that leaves an
// empty queue behind schedules no completion at all — see
// dirLink.settle.
type txDoneAction struct{ n *Network }

func (t *txDoneAction) Run(di, size int64) {
	n := t.n
	dl := &n.dirs[di]
	dl.queuedBytes -= int(size)
	if dl.nextQueue() == nil {
		dl.busy = false // a fault flushed the queue behind the frame
		return
	}
	n.transmitNext(int(di), n.shards[n.shardOfDir[di]])
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
	rate        sim.Rate
	prop        sim.Time
	queuedBytes int
	capBytes    int
	down        bool

	queues [numPriorities]pktFIFO
	busy   bool
	freeAt sim.Time

	// A frame that starts transmitting with nothing queued behind it
	// schedules no completion event: lazy records that its completion —
	// queuedBytes -= lazySize, busy = false, due at (freeAt, lazySeq) in
	// the engine's total order — has yet to be applied. settle applies
	// it the next time anyone looks at the port.
	lazy     bool
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
// scheduled one would have run by now — eng is the engine of the shard
// owning the direction, and Passed decides a same-instant tie by
// schedule order exactly as the queue would have. Every reader of
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
	if cfg.Shards >= 1 && cfg.Engine != nil {
		return nil, fmt.Errorf("netsim: Config.Engine and Config.Shards are mutually exclusive")
	}
	host := cfg.Host
	if host == (HostModel{}) {
		host = DefaultHost
	}
	n := &Network{
		g:      cfg.Graph,
		host:   host,
		record: cfg.RecordPaths,
	}
	n.txDone = txDoneAction{n: n}
	n.models = make([]SwitchModel, cfg.Graph.NumNodes())
	for i := 0; i < cfg.Graph.NumNodes(); i++ {
		node := cfg.Graph.Node(topology.NodeID(i))
		if node.Kind != topology.Switch {
			continue
		}
		if cfg.SwitchModel != nil {
			n.models[i] = cfg.SwitchModel(node)
		} else {
			n.models[i] = Arista7150
		}
	}
	n.dirs = make([]dirLink, 2*cfg.Graph.NumLinks())
	for i := 0; i < cfg.Graph.NumLinks(); i++ {
		l := cfg.Graph.Link(topology.LinkID(i))
		for d := 0; d < 2; d++ {
			from := l.A
			if d == 1 {
				from = l.B
			}
			capBytes := n.bufferOf(from)
			n.dirs[2*i+d] = dirLink{rate: l.Rate, prop: l.Prop, capBytes: capBytes}
		}
	}
	if cfg.Shards >= 1 {
		if err := n.initSharded(cfg); err != nil {
			return nil, err
		}
	} else {
		n.initLegacy(cfg)
	}
	return n, nil
}

// initLegacy wires the historical single-engine execution: one shard
// aliasing the one engine, every lookup table mapping to it.
func (n *Network) initLegacy(cfg Config) {
	eng := cfg.Engine
	if eng == nil {
		// The calendar queue is ~2x faster than the binary heap on
		// packet workloads and produces the identical event order.
		eng = sim.NewCalendarEngine()
	}
	n.eng = eng
	n.shards = []*netShard{{
		idx:       0,
		eng:       eng,
		router:    cfg.Router,
		probe:     cfg.Probe,
		onDeliver: cfg.OnDeliver,
		onDrop:    cfg.OnDrop,
	}}
	n.shardOfNode = make([]int32, cfg.Graph.NumNodes())
	n.shardOfDir = make([]int32, len(n.dirs))
}

// initSharded partitions the topology, builds the synchronizer with a
// per-shard-pair lookahead matrix derived from the cross-shard links,
// and wires per-shard state.
//
// The matrix entry for shards (i, j) is the minimum over directed
// links from an i-node to a j-node of prop + txExtra: propagation
// delay plus the provable floor between the event that initiates a
// transmit and the tail leaving the port. The floor is per-transmitter
// (see txExtra); pairs with no direct link get 0 (the synchronizer
// bounds them through its shortest-path closure). Compared with the
// old single scalar (the global minimum propagation delay), each pair
// is bounded by its own — usually larger — delay, which widens every
// shard's parallel window.
func (n *Network) initSharded(cfg Config) error {
	part, err := PartitionByRing(cfg.Graph, cfg.Shards)
	if err != nil {
		return err
	}
	k := part.Shards
	n.shardOfNode = part.Of
	n.shardOfDir = make([]int32, len(n.dirs))
	// Per-node minimum adjacent link rate: the slowest wire that can
	// feed a cut-through switch bounds how early a tail can leave it.
	minInRate := make([]sim.Rate, cfg.Graph.NumNodes())
	for i := 0; i < cfg.Graph.NumLinks(); i++ {
		l := cfg.Graph.Link(topology.LinkID(i))
		for _, node := range [2]topology.NodeID{l.A, l.B} {
			if minInRate[node] == 0 || l.Rate < minInRate[node] {
				minInRate[node] = l.Rate
			}
		}
	}
	lookM := make([][]sim.Time, k)
	for i := range lookM {
		lookM[i] = make([]sim.Time, k)
	}
	look, haveCross := sim.Time(0), false
	for i := 0; i < cfg.Graph.NumLinks(); i++ {
		l := cfg.Graph.Link(topology.LinkID(i))
		sa, sb := part.Of[l.A], part.Of[l.B]
		n.shardOfDir[2*i] = sa
		n.shardOfDir[2*i+1] = sb
		if sa == sb {
			continue
		}
		for d := 0; d < 2; d++ {
			from, fs, ts := l.A, sa, sb
			if d == 1 {
				from, fs, ts = l.B, sb, sa
			}
			edge := l.Prop + n.txExtra(from, l.Rate, minInRate[from])
			if edge <= 0 {
				return fmt.Errorf("netsim: cross-shard link with propagation delay %v leaves no lookahead window", l.Prop)
			}
			if cur := lookM[fs][ts]; cur == 0 || edge < cur {
				lookM[fs][ts] = edge
			}
			if !haveCross || edge < look {
				look, haveCross = edge, true
			}
		}
	}
	if !haveCross {
		// No cross-shard links (K == 1, or disconnected partitions):
		// any positive lookahead is conservatively correct.
		look = sim.Millisecond
	}
	n.sharded = sim.NewShardedEngine(k, look, func(int) *sim.Engine {
		return sim.NewCalendarEngine()
	})
	if haveCross {
		n.sharded.SetLookahead(lookM)
	}
	n.hostSeq = make([]uint64, cfg.Graph.NumNodes())
	cloner, canClone := cfg.Router.(routing.ShardCloner)
	n.routersCloned = canClone && k > 1
	n.shards = make([]*netShard, k)
	for i := 0; i < k; i++ {
		router := cfg.Router
		if n.routersCloned && i > 0 {
			router = cloner.CloneForShard()
		}
		sh := &netShard{
			idx:    i,
			eng:    n.sharded.Shard(i),
			router: router,
			probe:  cfg.Probe,
			onDrop: cfg.OnDrop,
		}
		if cfg.OnDeliverSharded != nil {
			shard, fn := i, cfg.OnDeliverSharded
			sh.onDeliver = func(d Delivery) { fn(shard, d) }
		} else {
			sh.onDeliver = cfg.OnDeliver
		}
		n.shards[i] = sh
	}
	return nil
}

// txExtra returns the provable minimum virtual time between any event
// on node's shard that initiates a transmit on an outgoing link of
// rate out and the transmitted tail leaving the port (endTx in
// transmitNext) — the serialization component of the cross-shard
// lookahead promise. It must lower-bound every path into transmitNext:
//
//   - a transmitter re-armed from its own txDone completion starts at
//     freeAt = now, so endTx >= now + ser >= now + out.Serialize(1)
//     (for switches, ser is additionally floored by ServiceTime);
//   - a host enqueue has ready = now, same bound;
//   - a store-and-forward switch has ready = now + Latency, but the
//     re-arm and fault-replay (ready = now) paths cap the provable
//     floor at max(out.Serialize(1), ServiceTime) — the Latency term
//     must NOT be counted;
//   - a cut-through switch has ready = now − serIn + Latency: with
//     every inbound wire at least as fast as the output, serIn <= ser
//     and endTx >= now + min(Latency, out.Serialize(1)) across all
//     paths; with a slower inbound wire the head start can consume
//     the whole budget (endTx clamps to now), so the floor is zero
//     and the pair falls back to propagation delay alone.
//
// minIn is the slowest link adjacent to node (0 when it has none).
func (n *Network) txExtra(node topology.NodeID, out sim.Rate, minIn sim.Rate) sim.Time {
	ser1 := out.Serialize(1)
	if n.g.Node(node).Kind == topology.Host {
		return ser1
	}
	m := &n.models[node]
	if !m.CutThrough {
		if m.ServiceTime > ser1 {
			return m.ServiceTime
		}
		return ser1
	}
	if minIn > 0 && minIn < out {
		return 0
	}
	if m.Latency < ser1 {
		return m.Latency
	}
	return ser1
}

// rerouteAll recomputes routes around dead on every router the network
// holds: one shared router in legacy mode, every shard-local clone
// otherwise. Reroute is deterministic in (graph, dead), so the clones
// stay identical without any cross-shard coordination. Runs with the
// simulation single-threaded (legacy event or global phase).
func (n *Network) rerouteAll(dead map[topology.LinkID]bool) {
	if !n.routersCloned {
		if r, ok := n.shards[0].router.(routing.Rerouter); ok {
			r.Reroute(dead)
		}
		return
	}
	for _, sh := range n.shards {
		if r, ok := sh.router.(routing.Rerouter); ok {
			r.Reroute(dead)
		}
	}
}

func (n *Network) bufferOf(node topology.NodeID) int {
	if n.g.Node(node).Kind == topology.Host {
		return n.host.BufferBytes
	}
	return n.models[node].BufferBytes
}

// Engine returns the single simulation engine driving this network.
// It panics on a sharded network, which has one engine per shard: use
// Scheduler for run control and global scheduling, or SchedulerFor for
// node-local scheduling.
func (n *Network) Engine() *sim.Engine {
	if n.sharded != nil {
		panic("netsim: Engine() on a sharded network; use Scheduler()/SchedulerFor()")
	}
	return n.eng
}

// Scheduler returns the scheduling surface driving this network: the
// single engine in legacy mode, the sharded synchronizer otherwise.
// Schedule/After on a sharded network enqueue global (all-shards-
// parked) events — correct for run control, fault scripts, and
// watchdogs, not for per-packet work.
func (n *Network) Scheduler() sim.Scheduler {
	if n.sharded != nil {
		return n.sharded
	}
	return n.eng
}

// SchedulerFor returns the scheduler owning the given node: events for
// traffic sourced at that node belong on it. In legacy mode this is
// the single engine. Closures scheduled here run on the owning shard's
// goroutine and may touch that shard's state only.
func (n *Network) SchedulerFor(node topology.NodeID) sim.Scheduler {
	return n.shards[n.shardOfNode[node]].eng
}

// Sharded returns the sharded synchronizer, or nil in legacy mode.
func (n *Network) Sharded() *sim.ShardedEngine { return n.sharded }

// NumShards returns the number of execution shards (1 in legacy mode).
func (n *Network) NumShards() int { return len(n.shards) }

// ShardOf returns the shard owning the given node (0 in legacy mode).
func (n *Network) ShardOf(node topology.NodeID) int { return int(n.shardOfNode[node]) }

// Run processes events until none remain — Engine().Run() in legacy
// mode, the parallel synchronizer otherwise.
func (n *Network) Run() { n.Scheduler().Run() }

// RunUntil processes events with timestamps <= end, then advances the
// clock(s) to end.
func (n *Network) RunUntil(end sim.Time) { n.Scheduler().RunUntil(end) }

// SetProbe attaches a lifecycle observer (nil detaches it); it replaces
// any probe set via Config.Probe. Use Probes to combine several. On a
// sharded network the same instance is attached to every shard and is
// called from shard goroutines concurrently; prefer Observe, which
// builds per-shard observers and merges their output.
func (n *Network) SetProbe(p Probe) {
	for _, sh := range n.shards {
		sh.probe = p
	}
}

// SetShardProbe attaches a lifecycle observer to one shard: it sees
// exactly the events executing on that shard (enqueues and transmits
// at the shard's nodes, deliveries and drops at the shard's hosts and
// ports), always from that shard's goroutine.
func (n *Network) SetShardProbe(shard int, p Probe) { n.shards[shard].probe = p }

// Graph returns the simulated topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Delivered returns the count of packets delivered so far.
func (n *Network) Delivered() uint64 {
	var total uint64
	for _, sh := range n.shards {
		total += sh.delivered
	}
	return total
}

// Dropped returns the count of packets dropped so far.
func (n *Network) Dropped() uint64 {
	var total uint64
	for _, sh := range n.shards {
		total += sh.dropped
	}
	return total
}

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
	if n.g.Node(pkt.Src).Kind != topology.Host {
		panic(fmt.Sprintf("netsim: source %d is not a host", pkt.Src))
	}
	sh := n.shards[n.shardOfNode[pkt.Src]]
	ev := n.newEvent(sh)
	ev.node, ev.ser, ev.p = pkt.Src, 0, pkt
	p := &ev.p
	if n.sharded != nil {
		// Per-source IDs: the sequence a host hands out is independent
		// of how sends interleave across shards, so packet IDs — and
		// the per-packet ECMP spray that hashes them — are identical
		// for every shard count. During a run, Send must be called
		// from the source's shard (traffic handlers satisfy this: a
		// delivery runs on its destination's shard, and replies
		// originate there).
		n.hostSeq[p.Src]++
		p.ID = uint64(p.Src+1)<<40 | n.hostSeq[p.Src]
	} else {
		n.nextID++
		p.ID = n.nextID
	}
	p.Created = sh.eng.Now()
	p.Hops = 0
	p.Hash = routing.PacketHash(p.Flow)
	if n.record {
		p.Path = append(p.Path[:0], p.Src)
	}
	if p.Src == p.Dst {
		// Loopback: deliver after the stack round trip.
		ev.kind = evDeliver
		sh.eng.AfterAction(2*n.host.NICLatency, ev, 0, 0)
		return p.ID
	}
	// NIC send-side latency, then onto the wire.
	ev.kind = evForward
	sh.eng.AfterAction(n.host.NICLatency, ev, 0, 0)
	return p.ID
}

// forward routes ev's packet out of ev.node at readyTime (the time its
// tail is ready to begin serialization on the chosen output) and queues
// the record on that port. sh is the shard owning the node.
func (n *Network) forward(sh *netShard, ev *netEvent, readyTime sim.Time) {
	node, p := ev.node, &ev.p
	if p.Hops >= maxHops {
		n.drop(sh, ev, DropCodeHopLimit, -1, nil)
		return
	}
	if node == p.Waypoint {
		p.Waypoint = NoWaypoint
	}
	port, err := sh.router.NextPort(node, routing.PacketMeta{
		Flow: p.Flow, Seq: p.ID, Src: p.Src, Dst: p.Dst, Waypoint: p.Waypoint,
		Hash: p.Hash,
	})
	if err != nil {
		n.drop(sh, ev, DropCodeNoRoute, -1, err)
		return
	}
	link := n.g.Link(port.Link)
	di := 2 * int(port.Link)
	if link.B == node {
		di++
	}
	dl := &n.dirs[di]
	if dl.down {
		dl.drops++
		n.drop(sh, ev, DropCodeLinkDown, port.Link, nil)
		return
	}
	dl.settle(sh.eng)
	if dl.queuedBytes+p.Size > dl.capBytes {
		dl.drops++
		n.drop(sh, ev, DropCodeQueueFull, port.Link, nil)
		return
	}
	ser := dl.rate.Serialize(p.Size)
	if n.g.Node(node).Kind == topology.Switch {
		m := &n.models[node]
		if m.ECNThresholdBytes > 0 && dl.queuedBytes >= m.ECNThresholdBytes {
			p.Marked = true
		}
		// Store-and-forward chassis ports are paced by the forwarding
		// engine when that is slower than the wire.
		if m.ServiceTime > ser {
			ser = m.ServiceTime
		}
	}
	dl.queuedBytes += p.Size
	pri := int(p.Priority)
	if pri >= numPriorities {
		pri = numPriorities - 1
	}
	ev.ready, ev.tailIn, ev.ser = readyTime, sh.eng.Now(), ser
	dl.queues[pri].push(ev)
	if sh.probe != nil {
		sh.probe.PacketEnqueued(QueueEvent{
			At: sh.eng.Now(), Port: PortRef{Link: port.Link, From: node},
			QueuedBytes: dl.queuedBytes, Packet: *p,
		})
	}
	switch {
	case !dl.busy:
		n.transmitNext(di, sh)
	case dl.lazy:
		// The port is mid-frame and its completion was elided: arm it
		// now, under the order number it reserved, so this frame starts
		// exactly when an eagerly scheduled completion would start it.
		dl.lazy = false
		sh.eng.ScheduleReserved(dl.freeAt, dl.lazySeq, &n.txDone, int64(di), int64(dl.lazySize))
	}
}

// transmitNext starts the transmitter on the next queued packet,
// serving strict priority order, and re-arms the packet's record as the
// arrival at the far end. At least one frame must be queued. sh is the
// shard owning the direction's transmit side.
func (n *Network) transmitNext(di int, sh *netShard) {
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
	if now := sh.eng.Now(); endTx < now {
		endTx = now
	}
	size := ev.p.Size
	dl.freeAt = endTx
	dl.txPackets++
	dl.txBytes += uint64(size)
	dl.busyTime += ser
	l := n.g.Link(topology.LinkID(di / 2))
	peer := l.A
	if di%2 == 0 {
		peer = l.B
	}
	if sh.probe != nil {
		// QueuedBytes reflects the depth once this packet's tail leaves,
		// which is also when At falls.
		sh.probe.PacketTransmitted(QueueEvent{
			At: endTx, Port: n.portRef(di), QueuedBytes: dl.queuedBytes - size, Packet: ev.p,
		})
	}
	// Completion first, then arrival — the schedule order older closure
	// code used, preserved so event ordering (and every result) is
	// byte-identical. With nothing queued behind this frame the
	// completion is only a reservation of its place in that order (see
	// dirLink.settle); every other event keeps its (time, order).
	if dl.nextQueue() == nil {
		dl.lazy, dl.lazySize, dl.lazySeq = true, size, sh.eng.ReserveSeq()
	} else {
		sh.eng.ScheduleAction(endTx, &n.txDone, int64(di), int64(size))
	}
	ev.kind, ev.node = evArrive, peer
	if ps := n.shardOfNode[peer]; int(ps) != sh.idx {
		// Cross-shard hop: the arrival travels through the
		// synchronizer's SPSC ring and is committed into the peer's
		// engine at the next barrier. Its timestamp is endTx + prop >=
		// now + lookahead, which is what makes the window conservative.
		n.sharded.Cross(sh.idx, int(ps), endTx+dl.prop, ev, 0, 0)
	} else {
		sh.eng.ScheduleAction(endTx+dl.prop, ev, 0, 0)
	}
}

// arrive handles the tail of ev's packet reaching ev.node at the
// current simulation time, having been serialized over ev.ser. sh is
// the shard owning the node.
func (n *Network) arrive(sh *netShard, ev *netEvent) {
	node, p := ev.node, &ev.p
	if n.record {
		p.Path = append(p.Path, node)
	}
	p.Hops++
	if node == p.Dst {
		// NIC receive-side latency.
		ev.kind = evDeliver
		sh.eng.AfterAction(n.host.NICLatency, ev, 0, 0)
		return
	}
	if n.g.Node(node).Kind == topology.Host {
		// Server-side forwarding (BCube-style): pay the OS stack.
		ev.kind = evForward
		sh.eng.AfterAction(n.host.ForwardLatency, ev, 0, 0)
		return
	}
	m := &n.models[node]
	ready := sh.eng.Now() + m.Latency
	if m.CutThrough {
		// The head arrived ev.ser ago and may leave m.Latency later. The
		// tail cannot leave the output before it has arrived here;
		// transmitNext clamps the transmit completion to now. (A
		// store-and-forward switch waits for the full frame, then
		// processes.)
		ready -= ev.ser
	}
	n.forward(sh, ev, ready)
}

// deliver and drop end a packet's life: the record goes back to the
// pool before any handler runs, so a handler that sends can reuse it,
// and the Packet is copied out only if a handler is there to read it.

func (n *Network) deliver(sh *netShard, ev *netEvent) {
	sh.delivered++
	if sh.onDeliver == nil && sh.probe == nil {
		sh.freeEvent(ev)
		return
	}
	now := sh.eng.Now()
	d := Delivery{Packet: ev.p, At: now, Latency: now - ev.p.Created}
	sh.freeEvent(ev)
	if sh.onDeliver != nil {
		sh.onDeliver(d)
	}
	if sh.probe != nil {
		sh.probe.PacketDelivered(d)
	}
}

func (n *Network) drop(sh *netShard, ev *netEvent, code DropCode, link topology.LinkID, err error) {
	sh.dropped++
	if sh.onDrop == nil && sh.probe == nil {
		sh.freeEvent(ev)
		return
	}
	d := Drop{Packet: ev.p, At: sh.eng.Now(), Code: code, Link: link, Err: err}
	sh.freeEvent(ev)
	if sh.onDrop != nil {
		sh.onDrop(d)
	}
	if sh.probe != nil {
		sh.probe.PacketDropped(d)
	}
}

// LinkDrops returns the number of packets dropped at the queue of the
// given link in the direction from the given node.
func (n *Network) LinkDrops(link topology.LinkID, from topology.NodeID) uint64 {
	di := 2 * int(link)
	if n.g.Link(link).B == from {
		di++
	}
	return n.dirs[di].drops
}

// QueuedBytes returns the bytes currently queued on the given link in
// the direction from the given node.
func (n *Network) QueuedBytes(link topology.LinkID, from topology.NodeID) int {
	di := 2 * int(link)
	if n.g.Link(link).B == from {
		di++
	}
	dl := &n.dirs[di]
	dl.settle(n.shards[n.shardOfDir[di]].eng)
	return dl.queuedBytes
}
