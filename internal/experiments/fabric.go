package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/trace"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// The one packet-run builder. Every packet cell and the scenario runner
// describe their run as a PacketRun; Shared.Build borrows its network
// and attaches the harness, the probes, the faults and the tasks, in
// that order, and Shared.Run drives it. One Grid.runCells call builds
// each architecture once (Shared.Arch) — an Architecture is immutable,
// so cells on any worker share it — and keeps free lists of networks
// and generators: a cell borrows a network built on its architecture,
// host model and switch override, reset to exactly what netsim.New
// would give it, and gives it back at its end. Only a fault schedule
// writes to a router, so a run with one builds its own architecture
// (the zero Shared shares nothing).

// fabrics is one runCells call's memo of architectures and its free
// lists; the zero value is ready. nets holds released networks, each
// with the netKey it was built for, and room for one from each of the
// call's cells.
type fabrics struct {
	mu    sync.Mutex
	built map[Fabric]*core.Architecture
	cells int
	nets  []Packet
	rands traffic.RandPool
}

// Fabric names an architecture for Shared.Arch: a core.Designs entry by
// its Name, sized by Params and built from Seed when it draws from the
// RNG, or one of ownFabric's. VLB, when not 0, routes it with Valiant
// load balancing at that indirect fraction.
type Fabric struct {
	Name   string
	Seed   int64
	Params core.ArchParams
	VLB    float64
}

// netKey is what a network was built for.
type netKey struct {
	arch     *core.Architecture
	host     netsim.HostModel
	switches netsim.SwitchModel
}

// Shared is one cell's handle on its run: ctx is the worker pool's
// context, fabrics the run's architectures and free lists, rec and track
// place the build span under the cell's own span, and events is the
// cell's own slot of the run's event count. The zero Shared shares
// nothing and counts nothing: what it builds is the caller's alone.
type Shared struct {
	ctx     context.Context
	fabrics *fabrics
	rec     *trace.Recorder
	track   int
	events  *uint64
}

// Context is done once the run is cancelled or another of its cells has
// failed; a cell that runs long checks it as it goes.
func (s Shared) Context() context.Context { return s.ctx }

// WithContext returns s with Run watching ctx instead.
func (s Shared) WithContext(ctx context.Context) Shared {
	s.ctx = ctx
	return s
}

// AddEvents adds n simulator events to the cell's count.
func (s Shared) AddEvents(n uint64) {
	if s.events != nil {
		*s.events += n
	}
}

// Run is the one stop-and-count loop: it runs net to until
// (sim.MaxTime: until nothing is pending) or until s's context ends,
// within a fixed number of events (sim.Engine.StopOn), adds the events
// it processed to the cell's count and returns the context's error,
// which the cell returns.
func (s Shared) Run(net *netsim.Network, until sim.Time) error {
	eng := net.Engine()
	eng.StopOn(s.ctx.Done())
	before := eng.Processed()
	eng.RunUntil(until)
	s.AddEvents(eng.Processed() - before)
	return s.ctx.Err()
}

// uniform is the switch-model function of a fabric whose switches are
// all m.
func uniform(m netsim.SwitchModel) func(topology.Node) netsim.SwitchModel {
	return func(topology.Node) netsim.SwitchModel { return m }
}

// Arch returns f's architecture, built on the run's first request, in
// a "build" span of that cell, and shared by every later one. The zero
// Shared builds it anew. A build is a millisecond, so the lock is held
// across it.
func (s Shared) Arch(f Fabric) (*core.Architecture, error) {
	d, design := core.FindDesign(func(d core.Design) bool { return d.Name == f.Name })
	if !d.Random {
		f.Seed = 0
	}
	m := s.fabrics
	if m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		if a := m.built[f]; a != nil {
			return a, nil
		}
	}
	start := time.Now()
	var a *core.Architecture
	var err error
	switch {
	case !design:
		a, err = ownFabric(f.Name)
	case d.Random:
		a, err = d.Build(f.Params, rand.New(rand.NewSource(f.Seed)))
	default:
		a, err = d.Build(f.Params, nil)
	}
	if err == nil && f.VLB != 0 {
		a, err = a.WithVLB(f.VLB)
	}
	if err != nil || m == nil {
		return a, err
	}
	if m.built == nil {
		m.built = map[Fabric]*core.Architecture{}
	}
	m.built[f] = a
	if s.rec.Enabled() {
		s.rec.Add(trace.Span{
			Name: "build", Cat: "experiment", Track: s.track,
			Wall: s.rec.Since(start), WallDur: time.Since(start).Nanoseconds(),
		})
	}
	return a, nil
}

// ownFabric builds the experiments' architectures that are not core
// designs: fig20's non-blocking core switch and Quartz ring, and the §6
// prototype's two wirings.
func ownFabric(name string) (*core.Architecture, error) {
	switch name {
	case fig20Switch:
		return core.NewDesign(name, fig20Star(), uniform(nonBlockingCore)), nil
	case fig20Quartz:
		g, err := fig20Ring()
		if err != nil {
			return nil, err
		}
		return core.NewDesign(name, g, uniform(netsim.Arista7150)), nil
	case prototypeTree, prototypeMesh:
		g, _ := prototype(name == prototypeMesh)
		return core.NewDesign(name, g, uniform(prototypeSwitch)), nil
	}
	return nil, fmt.Errorf("experiments: unknown architecture %q", name)
}

// PacketRun is one packet-level run. Host is the end-host model (zero:
// netsim.DefaultHost); Switches, when not zero, replaces Arch's switch
// models. Probe observes the run, and SampleEvery, when positive, adds
// a queue sampler ticking until End. Faults, when set, is applied (with
// Arch's fiber resolver if Arch is a ring), OnFault seeing each change;
// it reroutes Arch, which must be the run's own. Then Tasks tasks of
// Kind send PPS packets per second per stream, of Size bytes (0:
// traffic.PacketSize), until End, task i tagged 10(i+1) (replies one
// more), all drawing from one generator seeded Seed.
type PacketRun struct {
	Arch        *core.Architecture
	Host        netsim.HostModel
	Switches    netsim.SwitchModel
	Probe       netsim.Probe
	SampleEvery sim.Time
	Faults      *netsim.FaultSchedule
	OnFault     func(netsim.FaultChange)
	Kind        TaskKind
	Tasks       int
	PPS         float64
	Size        int
	Seed        int64
	End         sim.Time
}

// Packet is a run Shared.Build put together: its network, the harness
// every delivery passes through, and the queue sampler if it has one.
type Packet struct {
	Net     *netsim.Network
	Harness *traffic.Harness
	Sampler *netsim.QueueSampler
	sh      Shared
	key     netKey
	rands   traffic.Rands
}

// Build borrows r's network from the run's free list (or builds it),
// attaches a new harness as its delivery hook, then the probe, then the
// faults, and starts the tasks: the order their setup events are queued
// in. Each task draws its endpoints with pick, then one seed per stream,
// from the same generator: the scatter kinds' sender then receivers,
// GatherKind's receiver then senders, PairsKind's pairs. The task copies
// them out, so pick may reuse its buffer. Release gives back what a
// successful Build borrowed.
func (s Shared) Build(r PacketRun, pick func(task int, rng *rand.Rand) ([]topology.NodeID, [][2]topology.NodeID)) (Packet, error) {
	key := netKey{r.Arch, r.Host, r.Switches}
	p := Packet{Harness: traffic.NewHarness(), sh: s, key: key}
	if f := s.fabrics; f != nil {
		p.rands.Pool = &f.rands
		f.mu.Lock()
		if i := slices.IndexFunc(f.nets, func(q Packet) bool { return q.key == key }); i >= 0 {
			p.Net = f.nets[i].Net
			f.nets = slices.Delete(f.nets, i, i+1)
		}
		f.mu.Unlock()
	}
	if p.Net != nil {
		p.Net.Reset(p.Harness.Deliver)
	} else {
		model := r.Arch.Model
		if r.Switches != (netsim.SwitchModel{}) {
			model = uniform(r.Switches)
		}
		var err error
		cfg := netsim.Config{Graph: r.Arch.Graph, Router: r.Arch.Router, SwitchModel: model, Host: r.Host, OnDeliver: p.Harness.Deliver}
		if p.Net, err = netsim.New(cfg); err != nil {
			return Packet{}, err
		}
	}
	if r.SampleEvery > 0 {
		p.Sampler = netsim.NewQueueSampler(p.Net, r.SampleEvery)
		p.Sampler.Start(r.End)
		// As a probe the sampler keeps exact per-port peak depths.
		r.Probe = netsim.Probes(r.Probe, p.Sampler)
	}
	p.Net.SetProbe(r.Probe)
	if r.Faults != nil {
		if r.Arch.Ring != nil {
			if _, err := r.Arch.Ring.AttachFaults(p.Net); err != nil {
				return Packet{}, err
			}
		}
		p.Net.Faults().OnChange = r.OnFault
		if err := p.Net.Faults().Apply(*r.Faults); err != nil {
			return Packet{}, err
		}
	}
	if r.Tasks == 0 {
		return p, nil
	}
	rng := p.rands.New(r.Seed)
	for task := 0; task < r.Tasks; task++ {
		tag := 10 * (task + 1)
		members, pairs := pick(task, rng)
		var t *traffic.Task
		switch r.Kind {
		case ScatterKind:
			t = traffic.Scatter(p.Net, members[0], members[1:], r.PPS, tag, r.Arch.VLB, rng, &p.rands)
		case GatherKind:
			t = traffic.Gather(p.Net, members[1:], members[0], r.PPS, tag, r.Arch.VLB, rng, &p.rands)
		case ScatterGatherKind:
			t = traffic.ScatterGather(p.Net, p.Harness, members[0], members[1:], r.PPS, tag, tag+1, r.Arch.VLB, rng, &p.rands)
		default:
			t = traffic.Pairs(p.Net, pairs, r.PPS, tag, r.Arch.VLB, rng, &p.rands)
		}
		t.SetSize(r.Size)
		if err := t.Start(r.End); err != nil {
			return Packet{}, err
		}
	}
	return p, nil
}

// Release gives p's generators back to the run's free list, and its
// network too unless it can no longer be reset onto its router; nothing
// may touch them afterwards.
func (p Packet) Release() {
	p.rands.Release()
	if f := p.sh.fabrics; f != nil && p.Net.Recyclable() {
		f.mu.Lock()
		if f.nets == nil {
			f.nets = make([]Packet, 0, f.cells)
		}
		f.nets = append(f.nets, Packet{Net: p.Net, key: p.key})
		f.mu.Unlock()
	}
}
