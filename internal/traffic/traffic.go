// Package traffic generates the workloads of the Quartz paper's
// evaluation: Poisson packet streams, scatter / gather / scatter-gather
// tasks (§7.1), bursty cross-traffic and closed-loop RPCs (§6.1,
// Figure 14), the pathological switch-pair pattern (§7.2, Figure 20),
// and the flow-level pair patterns of Figure 10 (random permutation,
// incast, rack-level shuffle).
package traffic

import (
	"fmt"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// PacketSize is the paper's simulation packet size (§7): 400 bytes.
const PacketSize = 400

// Harness multiplexes delivery events to per-tag statistics and
// handlers. Wire its Deliver method into netsim.Config.OnDeliver.
type Harness struct {
	tags map[int]*tagState
}

// tagState is one tag's latency statistics and handler.
type tagState struct {
	lat    metrics.Stats
	handle func(netsim.Delivery)
}

// NewHarness returns an empty harness; it makes its map on first use.
func NewHarness() *Harness { return &Harness{} }

// tag returns tag's state, adding it on first use.
func (h *Harness) tag(tag int) *tagState {
	s := h.tags[tag]
	if s == nil {
		if h.tags == nil {
			h.tags = map[int]*tagState{}
		}
		s = &tagState{}
		h.tags[tag] = s
	}
	return s
}

// Deliver records the delivery latency under the packet's tag and runs
// any registered handler. Pass this to netsim.Config.OnDeliver.
func (h *Harness) Deliver(d netsim.Delivery) {
	s := h.tag(d.Packet.Tag)
	s.lat.Add(d.Latency.Micros())
	if s.handle != nil {
		s.handle(d)
	}
}

// Handle registers fn to run on every delivery with the given tag.
func (h *Harness) Handle(tag int, fn func(netsim.Delivery)) { h.tag(tag).handle = fn }

// Latency returns the latency statistics (in microseconds) for a tag.
// The returned Stats is live; it is nil-safe to query a tag that never
// delivered (an empty Stats is returned).
func (h *Harness) Latency(tag int) *metrics.Stats {
	if s, ok := h.tags[tag]; ok {
		return &s.lat
	}
	return &metrics.Stats{}
}

// Stream is an open-loop Poisson packet stream between two hosts. It
// is its own arrival event (a sim.Action), so a running stream
// schedules without allocating.
type Stream struct {
	Net  *netsim.Network
	Src  topology.NodeID
	Dst  topology.NodeID
	Flow routing.FlowID
	// RatePPS is the mean packet rate.
	RatePPS float64
	// Size is the packet size in bytes (PacketSize when zero).
	Size int
	Tag  int
	// VLB, when non-nil, assigns each packet a waypoint (per-packet
	// Valiant spreading, §3.4).
	VLB *routing.VLB
	// Rand drives arrivals and VLB choices; required.
	Rand *rand.Rand

	until     sim.Time
	meanGapPs float64
}

// Start schedules the stream's Poisson arrivals from now until the
// given absolute time. The stream must not move in memory until they
// end.
func (s *Stream) Start(until sim.Time) error {
	if s.Rand == nil {
		return fmt.Errorf("traffic: stream needs a Rand")
	}
	if s.RatePPS <= 0 {
		return fmt.Errorf("traffic: stream rate %v pps", s.RatePPS)
	}
	if s.Size == 0 {
		s.Size = PacketSize
	}
	s.until, s.meanGapPs = until, float64(sim.Second)/s.RatePPS
	s.schedule()
	return nil
}

// schedule draws the gap to the stream's next arrival.
func (s *Stream) schedule() {
	s.Net.Engine().AfterAction(sim.Time(s.Rand.ExpFloat64()*s.meanGapPs), s, 0, 0)
}

// Run implements sim.Action: one arrival, which sends a packet and
// schedules the next.
func (s *Stream) Run(int64, int64) {
	if s.Net.Engine().Now() >= s.until {
		return
	}
	p := netsim.Packet{
		Flow: s.Flow, Src: s.Src, Dst: s.Dst,
		Size: s.Size, Tag: s.Tag, Waypoint: netsim.NoWaypoint,
	}
	if s.VLB != nil {
		p.Waypoint = s.VLB.ChooseWaypoint(s.Src, s.Dst, s.Rand)
	}
	s.Net.Send(p)
	s.schedule()
}

// Task is a scatter, gather, or scatter-gather task instance.
type Task struct {
	streams []Stream
}

// SetSize overrides the packet size of every stream in the task.
// Must be called before Start.
func (t *Task) SetSize(bytes int) {
	for i := range t.streams {
		t.streams[i].Size = bytes
	}
}

// Start begins all of the task's streams; none may be added after.
func (t *Task) Start(until sim.Time) error {
	for i := range t.streams {
		if err := t.streams[i].Start(until); err != nil {
			return err
		}
	}
	return nil
}

// flowBase spreads flow IDs so concurrent tasks hash independently.
func flowBase(tag int) routing.FlowID { return routing.FlowID(tag) << 20 }

// streams builds a task of n streams like proto, stream i from and to
// the hosts ends(i) names, on flow base+i, its generator seeded from rng
// and taken from rands (nil allocates).
func streams(n int, ends func(i int) (src, dst topology.NodeID), base routing.FlowID,
	proto Stream, rng *rand.Rand, rands *Rands) *Task {
	t := &Task{streams: make([]Stream, n)}
	for i := range t.streams {
		s := proto
		s.Src, s.Dst = ends(i)
		s.Flow = base + routing.FlowID(i)
		s.Rand = rands.New(rng.Int63())
		t.streams[i] = s
	}
	return t
}

// Scatter builds a task in which sender concurrently streams packets to
// every receiver (§7.1) at perDestPPS packets per second each. Like
// Gather, ScatterGather and Pairs it seeds one generator per stream from
// rng and takes it from rands (nil allocates).
func Scatter(net *netsim.Network, sender topology.NodeID, receivers []topology.NodeID,
	perDestPPS float64, tag int, vlb *routing.VLB, rng *rand.Rand, rands *Rands) *Task {
	return streams(len(receivers), func(i int) (topology.NodeID, topology.NodeID) { return sender, receivers[i] },
		flowBase(tag), Stream{Net: net, RatePPS: perDestPPS, Tag: tag, VLB: vlb}, rng, rands)
}

// Gather builds a task in which every sender concurrently streams
// packets to one receiver (§7.1).
func Gather(net *netsim.Network, senders []topology.NodeID, receiver topology.NodeID,
	perSrcPPS float64, tag int, vlb *routing.VLB, rng *rand.Rand, rands *Rands) *Task {
	return streams(len(senders), func(i int) (topology.NodeID, topology.NodeID) { return senders[i], receiver },
		flowBase(tag), Stream{Net: net, RatePPS: perSrcPPS, Tag: tag, VLB: vlb}, rng, rands)
}

// Pairs builds a task with one stream per pair, first host to second,
// at pps packets per second each, on flows flowBase(1)+i whatever the
// tag: the pair patterns of the scenario runner and of Figures 20 and
// F6.
func Pairs(net *netsim.Network, pairs [][2]topology.NodeID, pps float64, tag int,
	vlb *routing.VLB, rng *rand.Rand, rands *Rands) *Task {
	return streams(len(pairs), func(i int) (topology.NodeID, topology.NodeID) { return pairs[i][0], pairs[i][1] },
		flowBase(1), Stream{Net: net, RatePPS: pps, Tag: tag, VLB: vlb}, rng, rands)
}

// ScatterGather builds a scatter task whose receivers send a reply
// packet back for every request received (§7.1). Requests are tagged
// reqTag, replies replyTag; the round-trip mean is the sum of the two
// tags' latency means. The handler is registered on h.
func ScatterGather(net *netsim.Network, h *Harness, sender topology.NodeID,
	receivers []topology.NodeID, perDestPPS float64, reqTag, replyTag int,
	vlb *routing.VLB, rng *rand.Rand, rands *Rands) *Task {
	t := Scatter(net, sender, receivers, perDestPPS, reqTag, vlb, rng, rands)
	replyRand := rands.New(rng.Int63())
	var replyFlow routing.FlowID
	h.Handle(reqTag, func(d netsim.Delivery) {
		reply := netsim.Packet{
			Flow: flowBase(replyTag) + replyFlow%1024,
			Src:  d.Packet.Dst, Dst: d.Packet.Src,
			Size: d.Packet.Size, Tag: replyTag, Waypoint: netsim.NoWaypoint,
		}
		replyFlow++
		if vlb != nil {
			reply.Waypoint = vlb.ChooseWaypoint(reply.Src, reply.Dst, replyRand)
		}
		net.Send(reply)
	})
	return t
}

// rpcSize is an RPC request's and its reply's size in bytes.
const rpcSize = 128

// RPC runs a closed-loop request/response exchange: one request in
// flight at a time, reply sent immediately on request delivery, next
// request sent on reply delivery (the prototype's Thrift "Hello World"
// RPC, §6.1), each packet rpcSize bytes. Round-trip times land in RTT.
type RPC struct {
	Net     *netsim.Network
	Harness *Harness
	Client  topology.NodeID
	Server  topology.NodeID
	// Count is the number of RPCs to issue (the paper uses 10,000).
	Count int
	// ReqTag/ReplyTag must be unique in the harness.
	ReqTag, ReplyTag int
	// Priority is the queueing class of the RPC's own packets (0 is
	// served first).
	Priority uint8

	// RTT accumulates round-trip times in microseconds.
	RTT metrics.Stats

	sent    int
	started sim.Time
}

// Start registers handlers and issues the first request.
func (r *RPC) Start() error {
	if r.Count <= 0 {
		return fmt.Errorf("traffic: rpc count %d", r.Count)
	}
	r.Harness.Handle(r.ReqTag, func(d netsim.Delivery) {
		r.Net.Send(netsim.Packet{
			Flow: flowBase(r.ReplyTag), Src: r.Server, Dst: r.Client,
			Size: rpcSize, Tag: r.ReplyTag, Waypoint: netsim.NoWaypoint,
			Priority: r.Priority,
		})
	})
	r.Harness.Handle(r.ReplyTag, func(d netsim.Delivery) {
		r.RTT.Add((d.At - r.started).Micros())
		if r.sent < r.Count {
			r.issue()
		}
	})
	r.issue()
	return nil
}

func (r *RPC) issue() {
	r.sent++
	r.started = r.Net.Engine().Now()
	r.Net.Send(netsim.Packet{
		Flow: flowBase(r.ReqTag), Src: r.Client, Dst: r.Server,
		Size: rpcSize, Tag: r.ReqTag, Waypoint: netsim.NoWaypoint,
		Priority: r.Priority,
	})
}

// A Bursty burst is burstLen back-to-back packets of burstSize bytes:
// bulk traffic, 20 packets a burst as in the paper.
const (
	burstSize = 1500
	burstLen  = 20
)

// Bursty generates the prototype experiment's cross-traffic (§6.1):
// bursts of burstLen packets back-to-back, separated by idle intervals
// sized to average the target bandwidth.
type Bursty struct {
	Net      *netsim.Network
	Src, Dst topology.NodeID
	Flow     routing.FlowID
	// Bandwidth is the target average rate.
	Bandwidth sim.Rate
	Tag       int
	// Priority is the queueing class of the burst packets.
	Priority uint8
	Rand     *rand.Rand
}

// Start schedules bursts until the given absolute time.
func (b *Bursty) Start(until sim.Time) error {
	if b.Bandwidth <= 0 {
		return fmt.Errorf("traffic: bursty bandwidth %v", b.Bandwidth)
	}
	if b.Rand == nil {
		return fmt.Errorf("traffic: bursty needs a Rand")
	}
	burstBits := float64(burstLen * burstSize * 8)
	periodPs := burstBits / float64(b.Bandwidth) * float64(sim.Second)
	eng := b.Net.Engine()
	var tick func()
	tick = func() {
		if eng.Now() >= until {
			return
		}
		for i := 0; i < burstLen; i++ {
			b.Net.Send(netsim.Packet{
				Flow: b.Flow, Src: b.Src, Dst: b.Dst,
				Size: burstSize, Tag: b.Tag, Waypoint: netsim.NoWaypoint,
				Priority: b.Priority,
			})
		}
		// Randomize the phase a little so concurrent bursty sources do
		// not synchronize (the paper's sources are unsynchronized).
		jitter := 0.5 + b.Rand.Float64()
		eng.After(sim.Time(periodPs*jitter), tick)
	}
	eng.After(sim.Time(periodPs*b.Rand.Float64()), tick)
	return nil
}

// Pairs of hosts for the flow-level patterns of Figure 10.

// RandomPermutation pairs every host with a distinct random partner:
// each host sends to exactly one host and receives from exactly one.
func RandomPermutation(hosts []topology.NodeID, rng *rand.Rand) [][2]topology.NodeID {
	n := len(hosts)
	perm := rng.Perm(n)
	// Fix any fixed points by swapping with a neighbour.
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	out := make([][2]topology.NodeID, 0, n)
	for i, p := range perm {
		if i == p {
			continue // single-host corner case
		}
		out = append(out, [2]topology.NodeID{hosts[i], hosts[p]})
	}
	return out
}

// Incast gives every host fanIn senders at random locations (the
// MapReduce shuffle stage of §5.1). Senders are spread round-robin so
// each host sends approximately fanIn flows.
func Incast(hosts []topology.NodeID, fanIn int, rng *rand.Rand) [][2]topology.NodeID {
	var out [][2]topology.NodeID
	n := len(hosts)
	for _, dst := range hosts {
		for k := 0; k < fanIn; k++ {
			src := hosts[rng.Intn(n)]
			for src == dst {
				src = hosts[rng.Intn(n)]
			}
			out = append(out, [2]topology.NodeID{src, dst})
		}
	}
	return out
}

// RackShuffle sends from every host in each rack to hosts in a few
// other racks (VM-migration style load balancing, §5.1). The pattern
// is built from racksPerSource random rack rotations so that every
// host sends exactly one flow and receives exactly one flow — the
// congestion is purely from rack-level concentration, not receiver
// collisions.
func RackShuffle(g *topology.Graph, racksPerSource int, rng *rand.Rand) [][2]topology.NodeID {
	rackSet := map[int][]topology.NodeID{}
	var rackIDs []int
	for _, h := range g.Hosts() {
		r := g.Node(h).Rack
		if _, ok := rackSet[r]; !ok {
			rackIDs = append(rackIDs, r)
		}
		rackSet[r] = append(rackSet[r], h)
	}
	R := len(rackIDs)
	if R < 2 {
		return nil
	}
	if racksPerSource > R-1 {
		racksPerSource = R - 1
	}
	// Distinct non-zero rack rotations: rotation k maps rack i to rack
	// (i + shift[k]) mod R, a bijection, so host slot j of each rack
	// receives exactly one flow per rotation class.
	shifts := rng.Perm(R - 1)[:racksPerSource]
	var out [][2]topology.NodeID
	for ri, rack := range rackIDs {
		srcs := rackSet[rack]
		for j, src := range srcs {
			shift := shifts[j%racksPerSource] + 1
			target := rackIDs[(ri+shift)%R]
			dsts := rackSet[target]
			out = append(out, [2]topology.NodeID{src, dsts[j%len(dsts)]})
		}
	}
	return out
}
