package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// recycleMesh is the recycled-network tests' fabric: 4 switches of 4
// hosts with 40-frame switch buffers, so the scatter load below
// congests the mesh links out of the senders' switch and drops there.
func recycleMesh(t *testing.T) (*topology.Graph, func(topology.Node) SwitchModel) {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: 4, HostsPerSwitch: 4})
	if err != nil {
		t.Fatal(err)
	}
	model := Arista7150
	model.BufferBytes = 40 * 400
	return g, func(topology.Node) SwitchModel { return model }
}

// scatterLoad starts two scatter tasks on net: hosts 0 and 1 each
// stream Poisson 400-byte packets at 500 k/s to hosts 4..9 until end,
// all gaps drawn in event order from one generator seeded with seed.
func scatterLoad(net *Network, seed int64, end sim.Time) {
	hosts := net.Graph().Hosts()
	rng := rand.New(rand.NewSource(seed))
	eng := net.Engine()
	gap := func() sim.Time { return sim.Time(rng.ExpFloat64() * float64(2*sim.Microsecond)) }
	for s, src := range hosts[:2] {
		for i, dst := range hosts[4:10] {
			flow := routing.FlowID(16*s + i)
			var tick func()
			tick = func() {
				if eng.Now() >= end {
					return
				}
				net.Unicast(flow, src, dst, 400, s)
				eng.After(gap(), tick)
			}
			eng.After(gap(), tick)
		}
	}
}

// delivered is what a delivery hook sees of one packet.
type delivered struct {
	ID          uint64
	At, Latency sim.Time
	Hops        int
}

// recycledRun is everything a run of scatterLoad shows from outside.
type recycledRun struct {
	deliveries         []delivered
	life               []string // with a lifeLog attached after the reset
	stats              []PortStats
	delivered, dropped uint64
	processed          uint64
	peakPending        int
}

// runScatter runs scatterLoad on a network that start builds or resets
// with the given delivery hook, optionally under a lifeLog.
func runScatter(t *testing.T, seed int64, logged bool, start func(onDeliver func(Delivery)) *Network) recycledRun {
	t.Helper()
	var r recycledRun
	net := start(func(d Delivery) {
		r.deliveries = append(r.deliveries, delivered{d.Packet.ID, d.At, d.Latency, d.Packet.Hops})
	})
	life := &lifeLog{}
	if logged {
		net.SetProbe(life)
	}
	const end = 300 * sim.Microsecond
	scatterLoad(net, seed, end)
	net.Engine().RunUntil(end + 100*sim.Microsecond)
	r.life, r.stats = life.lines, net.Stats()
	r.delivered, r.dropped = net.Delivered(), net.Dropped()
	r.processed, r.peakPending = net.Engine().Processed(), net.Engine().Telemetry().PeakPending
	return r
}

// TestRecycledNetworkMatchesFresh is the reference check behind network
// reuse: a network left dirty in every way a run can leave one — a
// RunUntil stopped with frames queued and events pending, a transmit
// completion still elided on a port, a probe attached, a fault schedule
// applied with a link down — once Reset, runs a scatter workload
// exactly as a network New just built: the same deliveries (ID, instant,
// latency, hops), drops, per-port counters, event count and queue peak.
// Each round dirties the recycled network again, and the rounds
// alternate between the bare delivery hook the packet grids use and a
// full lifecycle log.
func TestRecycledNetworkMatchesFresh(t *testing.T) {
	g, model := recycleMesh(t)
	recycled, err := New(Config{Graph: g, Router: routing.NewECMP(g), SwitchModel: model})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	cut, ok := g.FindLink(g.ToRof(hosts[0]), g.ToRof(hosts[8]))
	if !ok {
		t.Fatal("no switch link from host 0 to host 8")
	}
	for round := 0; round < 6; round++ {
		// Dirty it.
		recycled.Reset(func(Delivery) {})
		recycled.SetProbe(&lifeLog{})
		cutLink(t, recycled, cut.ID, 0)
		scatterLoad(recycled, int64(100+round), sim.Millisecond)
		stop := sim.Time(150+10*round) * sim.Microsecond
		recycled.Engine().RunUntil(stop)
		// Host 12 is idle: a frame it sends starts on its empty uplink
		// 500 ns later (NIC latency), and its completion, elided, falls
		// due 320 ns after that (400 bytes at 10 Gb/s).
		recycled.Unicast(99, hosts[12], hosts[13], 400, 0)
		recycled.Engine().RunUntil(stop + 600*sim.Nanosecond)
		queued, lazy := 0, 0
		for di := range recycled.dirs {
			dl := &recycled.dirs[di]
			if dl.nextQueue() != nil {
				queued++
			}
			if dl.lazy && !recycled.eng.Passed(dl.freeAt, dl.lazySeq) {
				lazy++
			}
		}
		if queued == 0 || lazy == 0 || recycled.eng.Pending() == 0 || recycled.Dropped() == 0 {
			t.Fatalf("round %d: dirty network has %d queued ports, %d elided completions pending, %d events pending, %d drops; want all > 0",
				round, queued, lazy, recycled.eng.Pending(), recycled.Dropped())
		}
		if recycled.Recyclable() {
			t.Fatalf("round %d: a network with a probe and a fault injector reports Recyclable", round)
		}

		seed, logged := int64(round), round%2 == 1
		want := runScatter(t, seed, logged, func(onDeliver func(Delivery)) *Network {
			net, err := New(Config{Graph: g, Router: routing.NewECMP(g), SwitchModel: model, OnDeliver: onDeliver})
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
		got := runScatter(t, seed, logged, func(onDeliver func(Delivery)) *Network {
			recycled.Reset(onDeliver)
			if !recycled.Recyclable() {
				t.Fatalf("round %d: a reset network is not Recyclable", round)
			}
			free := 0
			for ev := recycled.freeEv; ev != nil; ev = ev.next {
				free++
			}
			if free == 0 || free != recycled.pooled {
				t.Fatalf("round %d: %d of %d records on the free list after Reset", round, free, recycled.pooled)
			}
			return recycled
		})
		if want.delivered == 0 || want.dropped == 0 {
			t.Fatalf("round %d: the reference run delivered %d and dropped %d; the workload must do both", round, want.delivered, want.dropped)
		}
		if !reflect.DeepEqual(got.deliveries, want.deliveries) {
			for i := range min(len(got.deliveries), len(want.deliveries)) {
				if got.deliveries[i] != want.deliveries[i] {
					t.Fatalf("round %d: delivery %d is %+v on the recycled network, %+v on a new one", round, i, got.deliveries[i], want.deliveries[i])
				}
			}
			t.Fatalf("round %d: %d deliveries on the recycled network, %d on a new one", round, len(got.deliveries), len(want.deliveries))
		}
		if !reflect.DeepEqual(got.life, want.life) {
			t.Fatalf("round %d: lifecycle logs differ (%d lines recycled, %d new)", round, len(got.life), len(want.life))
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("round %d: port counters differ:\n recycled %v\n new      %v", round, got.stats, want.stats)
		}
		if got.delivered != want.delivered || got.dropped != want.dropped ||
			got.processed != want.processed || got.peakPending != want.peakPending {
			t.Fatalf("round %d: delivered/dropped/events/peak %d/%d/%d/%d recycled, %d/%d/%d/%d new", round,
				got.delivered, got.dropped, got.processed, got.peakPending,
				want.delivered, want.dropped, want.processed, want.peakPending)
		}
	}
}

// Irrelevant additions change nothing (a metamorphic relation): a fault
// schedule whose only event fires after the run's end, or an idle host
// appended as the last node, leaves every delivery (instant, latency,
// hops) and every port counter of the scatter load as it was; the idle
// host's own ports count nothing.
func TestIrrelevantAdditionsChangeNothing(t *testing.T) {
	run := func(late bool, idle bool) recycledRun {
		g, model := recycleMesh(t)
		if idle {
			sw := g.Switches()[len(g.Switches())-1]
			g.Connect(g.AddHost("idle", g.Node(sw).Rack), sw, 10*sim.Gbps, topology.DefaultProp)
		}
		return runScatter(t, 1, false, func(onDeliver func(Delivery)) *Network {
			net, err := New(Config{Graph: g, Router: routing.NewECMP(g), SwitchModel: model, OnDeliver: onDeliver})
			if err != nil {
				t.Fatal(err)
			}
			if late { // runScatter stops at 400 µs
				if err := net.Faults().Apply(FaultSchedule{Events: []FaultEvent{{Kind: FaultLink, Link: 0, At: 401 * sim.Microsecond}}}); err != nil {
					t.Fatal(err)
				}
			}
			return net
		})
	}
	want := run(false, false)
	for _, tc := range []struct{ late, idle bool }{{true, false}, {false, true}} {
		got := run(tc.late, tc.idle)
		if !reflect.DeepEqual(got.deliveries, want.deliveries) || !reflect.DeepEqual(got.stats[:len(want.stats)], want.stats) {
			t.Errorf("late fault %v, idle host %v: %d deliveries, %d dropped; want %d, %d and the same instants and port counters",
				tc.late, tc.idle, len(got.deliveries), got.dropped, len(want.deliveries), want.dropped)
		}
		for _, ps := range got.stats[len(want.stats):] {
			if ps.Packets != 0 || ps.Drops != 0 || ps.BusyTime != 0 {
				t.Errorf("the idle host's port %+v carried traffic", ps)
			}
		}
	}
}
