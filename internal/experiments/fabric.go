package experiments

import (
	"math/rand"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/trace"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// What one Grid.runCells call builds once and its cells share: the
// architectures, and the free list its cells borrow their stream
// generators from. A core.Architecture is immutable once built — graph,
// next-hop and distance tables, switch-model function; NextPort and
// ChooseWaypoint only read them — so every cell that names one can
// simulate on the same value from any worker, while netsim.New gives
// each cell its own queues, pools, engine and RNG. The one thing that
// writes to a router is Rerouter.Reroute, which a fault schedule drives;
// cells that attach one must build their own architecture and not ask
// here.

// fabrics memoises architectures for one runCells call, which creates
// it (the zero value is ready) and drops it on return; rands is that
// call's generator free list.
type fabrics struct {
	mu    sync.Mutex
	built map[fabricKey]*core.Architecture
	rands traffic.RandPool
}

// fabricKey identifies an architecture: its name, plus the seed for the
// builders that draw from the RNG (0 for the rest).
type fabricKey struct {
	name string
	seed int64
}

// shared is one cell's handle on its run's fabrics; rec and track place
// the build span under the cell's own span, and events is the cell's
// own slot of the run's event count.
type shared struct {
	fabrics *fabrics
	rec     *trace.Recorder
	track   int
	events  *uint64
}

// ran adds what net's engine processed to the cell's event count; a
// cell calls it once per network, after that network has run.
func (s shared) ran(net *netsim.Network) { *s.events += net.Engine().Processed() }

// rands hands one simulation of the cell its generators from the run's
// free list; the simulation releases them when it ends.
func (s shared) rands() traffic.Rands { return traffic.Rands{Pool: &s.fabrics.rands} }

// uniform is the switch-model function of a fabric whose switches are
// all m.
func uniform(m netsim.SwitchModel) func(topology.Node) netsim.SwitchModel {
	return func(topology.Node) netsim.SwitchModel { return m }
}

// arch returns the named architecture as buildArch builds it from seed,
// building it on the run's first request: that cell records a "build"
// span, the others reuse the result. A build is a millisecond, so the
// lock is simply held across it.
func (s shared) arch(name string, seed int64) (*core.Architecture, error) {
	seeded := archUsesRand(name)
	key := fabricKey{name: name}
	if seeded {
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
	if seeded {
		rng = rand.New(rand.NewSource(seed))
	}
	a, err := buildArch(name, rng)
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
