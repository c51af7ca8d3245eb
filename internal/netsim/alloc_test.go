package netsim

import (
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// TestForwardPathZeroAllocs locks in the tentpole invariant: with
// probes and path recording off, a steady-state packet lifecycle —
// Send, NIC delays, per-hop forward, transmit, propagation, delivery —
// allocates nothing. Pooled netEvents that double as the port queues'
// elements, dense routing tables, and the boxing-free event queue each
// contribute; a regression in any of them shows up here.
func TestForwardPathZeroAllocs(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	net, err := New(Config{
		Graph:  g,
		Router: routing.NewECMP(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the record pool and the event queue's storage
	// with a burst larger than any steady-state batch below.
	for i := 0; i < 64; i++ {
		net.Unicast(routing.FlowID(i), h0, h1, 1500, 0)
	}
	net.Engine().Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			net.Unicast(routing.FlowID(i), h0, h1, 1500, 0)
		}
		net.Engine().Run()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 8-packet batch, want 0", allocs)
	}
	if net.Dropped() != 0 {
		t.Fatalf("%d drops during alloc test", net.Dropped())
	}
}

// TestDropPathCheapWithoutConsumers checks drops stay allocation-free
// when nobody consumes them: the reason is a code, formatted only when
// Drop.Reason is called.
func TestDropPathCheapWithoutConsumers(t *testing.T) {
	g, h0, h1 := twoHosts(t, 10*sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	l, ok := g.FindLink(g.Switches()[0], g.Switches()[1])
	if !ok {
		t.Fatal("no inter-switch link")
	}
	cutLink(t, net, l.ID, 0)
	eng := net.Engine()
	for i := 0; i < 16; i++ {
		net.Unicast(routing.FlowID(i), h0, h1, 400, 0)
	}
	eng.RunUntil(eng.Now() + sim.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		net.Unicast(7, h0, h1, 400, 0)
		eng.RunUntil(eng.Now() + sim.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per dropped packet, want 0", allocs)
	}
	if net.Dropped() == 0 {
		t.Fatal("expected drops on the failed link")
	}
}

// TestDropReasonStrings pins the lazy formatting to the exact strings
// the closure-era hot path produced.
func TestDropReasonStrings(t *testing.T) {
	for _, tc := range []struct {
		d    Drop
		want string
	}{
		{Drop{Code: DropCodeQueueFull, Link: 12}, "queue full on link 12"},
		{Drop{Code: DropCodeLinkDown, Link: 3}, "link 3 down"},
		{Drop{Code: DropCodeLinkCut, Link: 3}, "link 3 cut"},
		{Drop{Code: DropCodeHopLimit, Link: -1}, "hop limit exceeded (routing loop?)"},
	} {
		if got := tc.d.Reason(); got != tc.want {
			t.Errorf("Reason(%v) = %q, want %q", tc.d.Code, got, tc.want)
		}
		if got, want := tc.d.Code.Class(), classifyDrop(tc.want); got != want {
			t.Errorf("Class(%v) = %q, want %q", tc.d.Code, got, want)
		}
	}
}

// TestPktQueueWraparound exercises the intrusive output FIFO against a
// straightforward model: interleaved pushes and pops that drain it to
// one element, to empty, and refill it, with records recycled through
// the pool the way the forward path recycles them.
func TestPktQueueWraparound(t *testing.T) {
	n := &Network{}
	var q pktFIFO
	next := uint64(0)
	var model []uint64
	push := func() {
		next++
		ev := n.newEvent()
		ev.p.ID = next
		q.push(ev)
		model = append(model, next)
	}
	pop := func() {
		ev := q.pop()
		if ev.next != nil {
			t.Fatalf("popped record %d still linked", ev.p.ID)
		}
		got, want := ev.p.ID, model[0]
		model = model[1:]
		if got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
		n.freeEvent(ev)
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 3+round%5; i++ {
			push()
		}
		for q.head != q.tail {
			pop()
		}
		if round%7 == 6 {
			pop()
			if !q.empty() || q.tail != nil {
				t.Fatalf("round %d: drained queue not empty (head %v tail %v)", round, q.head, q.tail)
			}
		}
	}
	for !q.empty() {
		pop()
	}
	if len(model) != 0 {
		t.Fatalf("model has %d leftovers", len(model))
	}
	// Every record came from the pool's slabs and went back to it.
	free := 0
	for ev := n.freeEv; ev != nil; ev = ev.next {
		free++
	}
	if free < eventSlab || free != n.pooled {
		t.Fatalf("%d records on the free list, %d allocated (slabs of at least %d)", free, n.pooled, eventSlab)
	}
}

// benchNet builds the standard two-switch path with no observers.
func benchNet(b *testing.B) (*Network, topology.NodeID, topology.NodeID) {
	g, h0, h1 := twoHosts(b, 10*sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		b.Fatal(err)
	}
	return net, h0, h1
}

// BenchmarkForwardDeliver measures the full per-packet lifecycle (six
// events: two NIC delays, three transmissions, delivery).
func BenchmarkForwardDeliver(b *testing.B) {
	net, h0, h1 := benchNet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Unicast(routing.FlowID(i&1023), h0, h1, 1500, 0)
		if i&255 == 255 {
			net.Engine().Run()
		}
	}
	net.Engine().Run()
	if net.Delivered() != uint64(b.N) {
		b.Fatalf("delivered %d of %d", net.Delivered(), b.N)
	}
}

// BenchmarkTransmitQueue drives a deep output queue through one
// bottleneck port: the cost is dominated by transmitNext and the
// output FIFO.
func BenchmarkTransmitQueue(b *testing.B) {
	g, h0, h1 := twoHosts(b, 1*sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Unicast(routing.FlowID(i&63), h0, h1, 1500, 0)
		if i&1023 == 1023 {
			net.Engine().Run()
		}
	}
	net.Engine().Run()
}
