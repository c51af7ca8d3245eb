package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// Tests for the elided transmit completion (dirLink.settle): a port
// whose queue empties schedules no txDone event, and every observable —
// lifecycle trace with queue depths, sampler rows, drops —
// must equal the reference in which every completion is an event.

// eagerCompletions is that reference, built without a switch in the
// production path: a Probe that, each time a transmitter dequeues a
// frame, schedules rearm at the present instant. rearm arms every
// elided completion under its reserved order number, which is precisely
// the schedule the forward path produced before completions were
// elided. The Probe contract forbids calling back into the engine; this
// one may, because what it schedules changes no other event's (at,
// seq) order: rearm takes its number before transmitNext reserves the
// completion's, so it always runs before that completion's turn, and a
// port read in between settles by Passed exactly as an armed completion
// would decide it.
type eagerCompletions struct{ n *Network }

func (e eagerCompletions) PacketEnqueued(QueueEvent) {}
func (e eagerCompletions) PacketTransmitted(QueueEvent) {
	e.n.eng.Schedule(e.n.eng.Now(), e.rearm)
}
func (e eagerCompletions) PacketDelivered(Delivery) {}
func (e eagerCompletions) PacketDropped(Drop)       {}

func (e eagerCompletions) rearm() {
	n := e.n
	for di := range n.dirs {
		if dl := &n.dirs[di]; dl.lazy {
			dl.lazy = false
			n.eng.ScheduleReserved(dl.freeAt, dl.lazySeq, &n.txDone, int64(di), int64(dl.lazySize))
		}
	}
}

// lifeLog is a Probe that renders every lifecycle report in full,
// including the queue depth each report carried.
type lifeLog struct{ lines []string }

func (l *lifeLog) PacketEnqueued(e QueueEvent) {
	l.lines = append(l.lines, fmt.Sprintf("%d enq flow=%d port=%d/%d depth=%d hops=%d pkt=%d",
		e.At, e.Packet.Flow, e.Port.Link, e.Port.From, e.QueuedBytes, e.Packet.Hops, e.Packet.ID))
}
func (l *lifeLog) PacketTransmitted(e QueueEvent) {
	l.lines = append(l.lines, fmt.Sprintf("%d tx flow=%d port=%d/%d depth=%d pkt=%d",
		e.At, e.Packet.Flow, e.Port.Link, e.Port.From, e.QueuedBytes, e.Packet.ID))
}
func (l *lifeLog) PacketDelivered(d Delivery) {
	l.lines = append(l.lines, fmt.Sprintf("%d deliver flow=%d lat=%d hops=%d pkt=%d",
		d.At, d.Packet.Flow, d.Latency, d.Packet.Hops, d.Packet.ID))
}
func (l *lifeLog) PacketDropped(d Drop) {
	l.lines = append(l.lines, fmt.Sprintf("%d drop flow=%d %s pkt=%d", d.At, d.Packet.Flow, d.Reason(), d.Packet.ID))
}

// runObserved is one observed run: what the probes and the sampler saw,
// and what it cost.
type runObserved struct {
	life      []string
	samples   []QueueSample
	delivered uint64
	dropped   uint64
	events    uint64
}

// observe builds a network on g, attaches a lifeLog and a QueueSampler
// ticking every interval until end, lets drive inject traffic, and runs
// to end. With eager set, completions are events (the reference).
func observe(t *testing.T, g *topology.Graph, model SwitchModel, eager bool, interval, end sim.Time, drive func(*Network)) runObserved {
	t.Helper()
	net, err := New(Config{
		Graph:       g,
		Router:      routing.NewECMP(g),
		SwitchModel: func(topology.Node) SwitchModel { return model },
	})
	if err != nil {
		t.Fatal(err)
	}
	life := &lifeLog{}
	sampler := NewQueueSampler(net, interval)
	probes := []Probe{life, sampler}
	if eager {
		probes = append(probes, eagerCompletions{net})
	}
	net.SetProbe(Probes(probes...))
	sampler.Start(end)
	drive(net)
	net.Engine().RunUntil(end)
	// Read every port once more after the run, through the public
	// accessor: a completion nobody looked at must have been applied.
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		for _, from := range []topology.NodeID{l.A, l.B} {
			life.lines = append(life.lines, fmt.Sprintf("end port=%d/%d depth=%d", l.ID, from, net.QueuedBytes(l.ID, from)))
		}
	}
	return runObserved{
		life: life.lines, samples: sampler.Samples(),
		delivered: net.Delivered(), dropped: net.Dropped(),
		events: net.Engine().Processed(),
	}
}

func diffObserved(t *testing.T, label string, lazy, eager runObserved) {
	t.Helper()
	if !reflect.DeepEqual(lazy.life, eager.life) {
		for i := 0; i < len(lazy.life) || i < len(eager.life); i++ {
			var a, b string
			if i < len(lazy.life) {
				a = lazy.life[i]
			}
			if i < len(eager.life) {
				b = eager.life[i]
			}
			if a != b {
				t.Fatalf("%s: lifecycle line %d differs:\n  elided: %s\n  eager:  %s", label, i, a, b)
			}
		}
	}
	if !reflect.DeepEqual(lazy.samples, eager.samples) {
		t.Fatalf("%s: sampler rows differ:\n  elided: %v\n  eager:  %v", label, lazy.samples, eager.samples)
	}
	if lazy.delivered != eager.delivered || lazy.dropped != eager.dropped {
		t.Fatalf("%s: delivered/dropped %d/%d, eager %d/%d", label, lazy.delivered, lazy.dropped, eager.delivered, eager.dropped)
	}
	if lazy.events >= eager.events {
		t.Fatalf("%s: %d events with completions elided, %d with every completion an event", label, lazy.events, eager.events)
	}
}

// fanIn builds three senders behind one switch: a, b, c — s0 — s1 —
// dst. Frames from a, b and c meet at the s0->s1 port.
func fanIn(t *testing.T) (g *topology.Graph, a, b, c, dst topology.NodeID, port PortRef) {
	t.Helper()
	g = topology.New("fan-in")
	s0 := g.AddSwitch("s0", topology.TierToR, 0)
	s1 := g.AddSwitch("s1", topology.TierToR, 1)
	a = g.AddHost("a", 0)
	b = g.AddHost("b", 0)
	dst = g.AddHost("dst", 1)
	g.Connect(a, s0, 10*sim.Gbps, topology.DefaultProp)
	g.Connect(b, s0, 10*sim.Gbps, topology.DefaultProp)
	l := g.Connect(s0, s1, 10*sim.Gbps, topology.DefaultProp)
	g.Connect(s1, dst, 10*sim.Gbps, topology.DefaultProp)
	c = g.AddHost("c", 0)
	g.Connect(c, s0, 10*sim.Gbps, topology.DefaultProp)
	return g, a, b, c, dst, PortRef{Link: l, From: s0}
}

// TestCompletionTieMatchesEagerReference constructs an exact
// same-picosecond tie at the s0->s1 port between frame A's transmit
// completion and frame B's arrival, in both schedule orders:
//
//   - "arrival first": B is a long frame, so its arrival at s0 was
//     scheduled (when b's NIC started sending) before A reached s0 and
//     reserved its completion — the arrival runs first, finds the port
//     still holding A, and queues behind it (its depth counts A; dropped when
//     the buffer cannot hold both);
//   - "completion first": B is a short frame sent late, so A's
//     completion holds the lower order number — B finds the port idle;
//   - "completion first, re-armed": as the last, but a third frame C
//     joins the port while A is still on the wire and after B's arrival
//     was scheduled, so forward arms A's elided completion. It must keep
//     the number it reserved: B then finds C transmitting, not A.
//
// A sampler tick is placed on the same picosecond. Everything observed
// must equal the eager reference.
func TestCompletionTieMatchesEagerReference(t *testing.T) {
	const (
		sizeA = 400
		sendA = 10 * sim.Microsecond
		end   = 100 * sim.Microsecond
	)
	g, a, b, c, dst, port := fanIn(t)

	// Pilot: A alone, to read off the instant its tail leaves s0.
	var doneA sim.Time
	{
		net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewTraceRecorder(0)
		net.SetProbe(rec)
		net.Engine().Schedule(sendA, func() { net.Unicast(1, a, dst, sizeA, 0) })
		net.Engine().RunUntil(end)
		for _, e := range rec.Events() {
			if e.Op == TraceTransmit && e.Link == port.Link && e.From == port.From {
				doneA = e.At
			}
		}
		if doneA == 0 {
			t.Fatal("pilot: A never crossed s0->s1")
		}
	}

	at := func(format string, args ...interface{}) string {
		return fmt.Sprintf("%d ", doneA) + fmt.Sprintf(format, args...)
	}
	for _, tc := range []struct {
		name   string
		sizeB  int
		buffer int
		// sizeC, when not zero, is the size of frame C (flow 3), whose
		// tail reaches s0 100 ns before the tie.
		sizeC int
		// want is the prefix of the one line B (flow 2) must log at the
		// tied instant: how it joined the s0->s1 port, or that it could
		// not.
		want string
	}{
		{"arrival first", 1500, 1 << 20, 0,
			at("enq flow=2 port=%d/%d depth=%d ", port.Link, port.From, sizeA+1500)},
		{"arrival first, tight buffer", 1500, sizeA + 1500 - 1, 0,
			at("drop flow=2 queue full on link %d", port.Link)},
		{"completion first", 64, 1 << 20, 0,
			at("enq flow=2 port=%d/%d depth=64 ", port.Link, port.From)},
		{"completion first, tight buffer", 64, sizeA + 64 - 1, 0,
			at("enq flow=2 port=%d/%d depth=64 ", port.Link, port.From)},
		{"completion first, re-armed", 64, 1 << 20, 64,
			at("enq flow=2 port=%d/%d depth=128 ", port.Link, port.From)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := Arista7150
			model.BufferBytes = tc.buffer
			// B reaches s0 NIC latency + serialization + propagation
			// after it is sent: aim that at doneA exactly.
			sendB := doneA - DefaultHost.NICLatency - (10 * sim.Gbps).Serialize(tc.sizeB) - topology.DefaultProp
			if sendB <= 0 {
				t.Fatalf("B would have to be sent at %v", sendB)
			}
			drive := func(net *Network) {
				net.Engine().Schedule(sendA, func() { net.Unicast(1, a, dst, sizeA, 0) })
				net.Engine().Schedule(sendB, func() { net.Unicast(2, b, dst, tc.sizeB, 0) })
				if tc.sizeC != 0 {
					sendC := doneA - 100*sim.Nanosecond - DefaultHost.NICLatency - (10 * sim.Gbps).Serialize(tc.sizeC) - topology.DefaultProp
					net.Engine().Schedule(sendC, func() { net.Unicast(3, c, dst, tc.sizeC, 0) })
				}
			}
			// Sampler interval = doneA: its first tick is a third event
			// on the tied picosecond.
			lazy := observe(t, g, model, false, doneA, end, drive)
			eager := observe(t, g, model, true, doneA, end, drive)
			diffObserved(t, tc.name, lazy, eager)

			// The construction really is the tie it claims to be.
			saw := false
			for _, line := range lazy.life {
				saw = saw || strings.HasPrefix(line, tc.want)
			}
			if !saw {
				t.Errorf("no line %q in\n%s", tc.want, strings.Join(lazy.life, "\n"))
			}
			// The tick on the tied picosecond ran before A's completion
			// (it was scheduled first), so it still sees A's bytes.
			found := false
			for _, s := range lazy.samples {
				if s.At == doneA && s.Port == port {
					found = true
					if s.QueuedBytes < sizeA {
						t.Errorf("sampler tick at the tie saw %d B queued, want A's %d still counted", s.QueuedBytes, sizeA)
					}
				}
			}
			if !found {
				t.Errorf("no sampler row for the tied port at %v: %v", doneA, lazy.samples)
			}
		})
	}
}

// TestElidedCompletionsMatchEagerUnderLoad is the same comparison on a
// congested run: random bursts from four senders through one 1 Gb/s
// bottleneck with a small buffer, two priority classes, a mid-run cut
// with held-and-detoured frames, and a sampler
// reading every port between packet events.
func TestElidedCompletionsMatchEagerUnderLoad(t *testing.T) {
	build := func() (*topology.Graph, []topology.NodeID, topology.NodeID, topology.LinkID) {
		g := topology.New("bottleneck")
		s0 := g.AddSwitch("s0", topology.TierToR, 0)
		s1 := g.AddSwitch("s1", topology.TierToR, 1)
		s2 := g.AddSwitch("s2", topology.TierToR, 2)
		var src []topology.NodeID
		for i := 0; i < 4; i++ {
			h := g.AddHost(fmt.Sprintf("h%d", i), 0)
			g.Connect(h, s0, 10*sim.Gbps, topology.DefaultProp)
			src = append(src, h)
		}
		dst := g.AddHost("dst", 1)
		direct := g.Connect(s0, s1, 1*sim.Gbps, topology.DefaultProp)
		g.Connect(s0, s2, 1*sim.Gbps, topology.DefaultProp)
		g.Connect(s2, s1, 1*sim.Gbps, topology.DefaultProp)
		g.Connect(s1, dst, 10*sim.Gbps, topology.DefaultProp)
		return g, src, dst, direct
	}
	const end = 3 * sim.Millisecond
	for _, policy := range []ReroutePolicy{DropInFlight, DetourInFlight} {
		for seed := int64(1); seed <= 3; seed++ {
			g, src, dst, direct := build()
			model := Arista7150
			model.BufferBytes = 12000
			drive := func(net *Network) {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 1500; i++ {
					at := sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
					h := src[rng.Intn(len(src))]
					pkt := Packet{
						Flow: routing.FlowID(rng.Intn(64)), Src: h, Dst: dst,
						Size: 64 + rng.Intn(1437), Priority: uint8(rng.Intn(3)), Waypoint: NoWaypoint,
					}
					net.Engine().Schedule(at, func() { net.Send(pkt) })
				}
				if err := net.Faults().Apply(FaultSchedule{
					Events:         []FaultEvent{{Kind: FaultLink, Link: direct, At: 700 * sim.Microsecond, RepairAt: 1500 * sim.Microsecond}},
					DetectionDelay: 100 * sim.Microsecond,
					Policy:         policy,
				}); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("policy %d seed %d", policy, seed)
			lazy := observe(t, g, model, false, 7*sim.Microsecond, end, drive)
			eager := observe(t, g, model, true, 7*sim.Microsecond, end, drive)
			diffObserved(t, label, lazy, eager)
			if lazy.dropped == 0 || lazy.delivered == 0 {
				t.Fatalf("%s: delivered %d dropped %d — the run is not congested enough to mean anything", label, lazy.delivered, lazy.dropped)
			}
		}
	}
}

// TestEventsPerPacketUncontended pins the event budget of the forward
// path: a packet crossing h links with no queueing costs one NIC-send
// event, one arrival per link, and one delivery — h + 2. (Every link
// used to cost a second event, the transmit completion: 2h + 2.)
func TestEventsPerPacketUncontended(t *testing.T) {
	for switches := 1; switches <= 4; switches++ {
		g := topology.New("line")
		h0 := g.AddHost("h0", 0)
		prev := h0
		for i := 0; i < switches; i++ {
			s := g.AddSwitch(fmt.Sprintf("s%d", i), topology.TierToR, i)
			g.Connect(prev, s, 10*sim.Gbps, topology.DefaultProp)
			prev = s
		}
		h1 := g.AddHost("h1", switches-1)
		g.Connect(prev, h1, 10*sim.Gbps, topology.DefaultProp)
		links := switches + 1

		net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
		if err != nil {
			t.Fatal(err)
		}
		const packets = 50
		for i := 0; i < packets; i++ {
			// Spaced far wider than the path latency: never two in flight.
			at := sim.Time(i) * 100 * sim.Microsecond
			net.Engine().Schedule(at, func() { net.Unicast(1, h0, h1, 400, 0) })
		}
		net.Run()
		if net.Delivered() != packets {
			t.Fatalf("%d links: delivered %d of %d", links, net.Delivered(), packets)
		}
		got := net.Engine().Processed() - packets // minus the injection closures
		if want := uint64(packets * (links + 2)); got != want {
			t.Errorf("%d links: %d events for %d packets, want %d (h+2 = %d each)", links, got, packets, want, links+2)
		}
	}
}

// QueuedBytes returns the bytes queued on the given link in the
// direction from the given node, settled to the present: the lazy
// settle, observed from outside.
func (n *Network) QueuedBytes(link topology.LinkID, from topology.NodeID) int {
	di := 2 * int(link)
	if n.g.Link(link).B == from {
		di++
	}
	dl := &n.dirs[di]
	dl.settle(n.eng)
	return dl.queuedBytes
}
