package experiments

import (
	"maps"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// portsProbe records the output port of every enqueue: a lone packet's
// path, one port per link.
type portsProbe struct{ ports []netsim.PortRef }

func (p *portsProbe) PacketEnqueued(e netsim.QueueEvent)  { p.ports = append(p.ports, e.Port) }
func (p *portsProbe) PacketTransmitted(netsim.QueueEvent) {}
func (p *portsProbe) PacketDelivered(netsim.Delivery)     {}
func (p *portsProbe) PacketDropped(netsim.Drop)           {}

// TestZeroLoadLatencyClosedForm sends one packet at a time over an idle
// network on every architecture the experiments simulate — two host
// pairs per source, in the same rack and across the fabric — on a new
// network and on one reset after every packet. Each packet must take a
// shortest path (as many links as a breadth-first search counts) and
// arrive after the Table 2 arithmetic that TestZeroLoadLatency* state
// for two switches: the send NIC, the first serialization, and per link
// its propagation plus the switch at its far end — a cut-through
// switch's latency, or a store-and-forward switch's latency plus its
// port's service (the frame's serialization where no slower service
// paces the port) — then the receive NIC. Every host link of a fabric
// runs at one rate, so a cut-through hop's serialization differences
// cancel.
//
// netsim departs from the arithmetic in one place, pinned here rather
// than hidden (EXPERIMENTS.md, "Zero-load latency"): a cut-through
// switch takes a frame's head start from the occupancy of the port it
// came from, and a CCS port's 6 µs service covers the switch's 380 ns
// and its serialization step, so a cut-through switch right after a CCS
// core adds nothing. That happens on the paths through the core of the
// three-tier tree and of Quartz in edge, and nowhere else.
func TestZeroLoadLatencyClosedForm(t *testing.T) {
	const size = 400
	nic := netsim.DefaultHost.NICLatency
	hides := map[string]bool{}
	var fabs []Fabric
	for _, name := range []string{"two-tier tree", "single Quartz ring", "three-tier tree", "jellyfish", "quartz in core",
		"quartz in edge", "quartz in edge and core", "quartz in jellyfish"} {
		fabs = append(fabs, Fabric{Name: name, Seed: 2014})
	}
	for _, f := range append(fabs, fig20Systems...) {
		arch, err := Shared{fabrics: new(fabrics)}.Arch(f)
		if err != nil {
			t.Fatal(err)
		}
		name := arch.Name
		g := arch.Graph
		var got netsim.Delivery
		probe := &portsProbe{}
		cfg := netsim.Config{Graph: g, Router: arch.Router, SwitchModel: arch.Model,
			OnDeliver: func(d netsim.Delivery) { got = d }}
		reused, err := netsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		for i, src := range hosts {
			hops := g.BFSDist(src, nil)
			for _, dst := range []topology.NodeID{hosts[(i^1)%len(hosts)], hosts[(i*7+len(hosts)/2)%len(hosts)]} {
				if dst == src {
					continue
				}
				for _, fresh := range []bool{true, false} {
					net := reused
					if fresh {
						if net, err = netsim.New(cfg); err != nil {
							t.Fatal(err)
						}
					} else {
						net.Reset(cfg.OnDeliver)
					}
					net.SetProbe(probe)
					got, probe.ports = netsim.Delivery{}, probe.ports[:0]
					net.Unicast(1, src, dst, size, 0)
					net.Run()
					if got.Packet.Hops != hops[dst] || len(probe.ports) != hops[dst] {
						t.Fatalf("%s %d->%d (fresh %v): %d hops over %d ports, BFS counts %d",
							name, src, dst, fresh, got.Packet.Hops, len(probe.ports), hops[dst])
					}
					first, last := g.Link(probe.ports[0].Link), g.Link(probe.ports[len(probe.ports)-1].Link)
					if first.Rate != last.Rate {
						t.Fatalf("%s %d->%d: host links at %v and %v", name, src, dst, first.Rate, last.Rate)
					}
					want, hidden := nic+first.Rate.Serialize(size)+nic, sim.Time(0)
					for k, port := range probe.ports {
						l := g.Link(port.Link)
						want += l.Prop
						if k == 0 {
							continue
						}
						m := arch.Model(g.Node(port.From))
						want += m.Latency
						if !m.CutThrough {
							want += max(m.ServiceTime, l.Rate.Serialize(size))
							continue
						}
						in := g.Link(probe.ports[k-1].Link)
						if k > 1 && arch.Model(g.Node(probe.ports[k-1].From)).ServiceTime > in.Rate.Serialize(size) {
							hidden += m.Latency + l.Rate.Serialize(size) - in.Rate.Serialize(size)
						}
					}
					if got.Latency != want-hidden {
						t.Errorf("%s %d->%d (fresh %v) over %v: latency %v, closed form %v less %v hidden behind a CCS port",
							name, src, dst, fresh, probe.ports, got.Latency, want, hidden)
					}
					if hidden > 0 {
						hides[name] = true
					}
				}
			}
		}
	}
	if want := map[string]bool{"three-tier tree": true, "quartz in edge": true}; !maps.Equal(hides, want) {
		t.Errorf("cut-through switches behind a CCS port add nothing on %v, want exactly %v", hides, want)
	}
	if _, err := (Shared{fabrics: new(fabrics)}).Arch(Fabric{Name: "nonsense", Seed: 2014}); err == nil {
		t.Error("an unknown architecture name built")
	}
}
