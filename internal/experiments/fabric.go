package experiments

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/trace"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// What one Grid.runCells call builds once and its cells share: the
// architectures, and the free lists its cells borrow their networks and
// stream generators from. A core.Architecture is immutable once built —
// graph, next-hop and distance tables, switch-model function; NextPort
// and ChooseWaypoint only read them — so every cell that names one can
// simulate on the same value from any worker. A cell has the network it
// simulates on to itself: it borrows one built on its architecture,
// reset (netsim.Network.Reset) to exactly what netsim.New would give
// it, and gives it back when it ends, so a run allocates a network per
// architecture and worker, not per cell. The one thing that writes to a
// router is Rerouter.Reroute, which a fault schedule drives; cells that
// attach one must build their own architecture and network and not ask
// here.

// fabrics memoises architectures for one runCells call, which creates
// it (the zero value is ready) and drops it on return; nets and rands
// are that call's network and generator free lists.
type fabrics struct {
	mu    sync.Mutex
	built map[fabricKey]*core.Architecture
	nets  map[*core.Architecture][]*netsim.Network
	rands traffic.RandPool
}

// fabricKey identifies an architecture: its name, plus the seed for the
// builders that draw from the RNG (0 for the rest).
type fabricKey struct {
	name string
	seed int64
}

// Shared is one cell's handle on its run: ctx is the worker pool's
// context, fabrics the run's architectures and free lists, rec and track
// place the build span under the cell's own span, and events is the
// cell's own slot of the run's event count. A cell outside this package
// (a scenario's) uses only Context and AddEvents.
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

// AddEvents adds n simulator events to the cell's count.
func (s Shared) AddEvents(n uint64) { *s.events += n }

// run runs net to end (sim.MaxTime: until nothing is pending) or until
// the cell's context ends, adds the events it processed to the cell's
// count and returns the context's error, which the cell returns.
func (s Shared) run(net *netsim.Network, end sim.Time) error {
	eng := net.Engine()
	eng.StopOn(s.ctx.Done())
	before := eng.Processed()
	eng.RunUntil(end)
	s.AddEvents(eng.Processed() - before)
	return s.ctx.Err()
}

// network hands the cell a network on arch with onDeliver as its
// delivery hook: a released one, reset, if the run has one for arch,
// else a new one. The cell gives it back with release when it ends.
func (s Shared) network(arch *core.Architecture, onDeliver func(netsim.Delivery)) (*netsim.Network, error) {
	f := s.fabrics
	f.mu.Lock()
	var net *netsim.Network
	if free := f.nets[arch]; len(free) > 0 {
		net, f.nets[arch] = free[len(free)-1], free[:len(free)-1]
	}
	f.mu.Unlock()
	if net != nil {
		net.Reset(onDeliver)
		return net, nil
	}
	return netsim.New(netsim.Config{
		Graph: arch.Graph, Router: arch.Router, SwitchModel: arch.Model, OnDeliver: onDeliver,
	})
}

// release returns a network from network to the run's free list for
// arch, unless it can no longer be reset onto arch's router; the cell
// must not touch it afterwards.
func (s Shared) release(arch *core.Architecture, net *netsim.Network) {
	if !net.Recyclable() {
		return
	}
	f := s.fabrics
	f.mu.Lock()
	if f.nets == nil {
		f.nets = map[*core.Architecture][]*netsim.Network{}
	}
	f.nets[arch] = append(f.nets[arch], net)
	f.mu.Unlock()
}

// rands hands one simulation of the cell its generators from the run's
// free list; the simulation releases them when it ends.
func (s Shared) rands() traffic.Rands { return traffic.Rands{Pool: &s.fabrics.rands} }

// uniform is the switch-model function of a fabric whose switches are
// all m.
func uniform(m netsim.SwitchModel) func(topology.Node) netsim.SwitchModel {
	return func(topology.Node) netsim.SwitchModel { return m }
}

// arch returns the named architecture — a core design, built from seed
// when it draws from the RNG, or one of fig20's systems — building it on
// the run's first request: that cell records a "build" span, the others
// reuse the result. A build is a millisecond, so the lock is simply held
// across it.
func (s Shared) arch(name string, seed int64) (*core.Architecture, error) {
	d, design := core.FindDesign(func(d core.Design) bool { return d.Name == name })
	key := fabricKey{name: name}
	if d.Random {
		key.seed = seed
	}
	f := s.fabrics
	f.mu.Lock()
	defer f.mu.Unlock()
	if a, ok := f.built[key]; ok {
		return a, nil
	}
	start := time.Now()
	var rng *rand.Rand
	if d.Random {
		rng = rand.New(rand.NewSource(seed))
	}
	if !design {
		d.Build = func(core.ArchParams, *rand.Rand) (*core.Architecture, error) { return fig20Arch(name) }
	}
	a, err := d.Build(core.ArchParams{}, rng)
	if err != nil {
		return nil, err
	}
	if f.built == nil {
		f.built = map[fabricKey]*core.Architecture{}
	}
	f.built[key] = a
	if s.rec.Enabled() {
		s.rec.Add(trace.Span{
			Name: "build", Cat: "experiment", Track: s.track,
			Wall: s.rec.Since(start), WallDur: time.Since(start).Nanoseconds(),
		})
	}
	return a, nil
}
