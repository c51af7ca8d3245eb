package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// The dynamic companion to Figure 6 (§3.5): instead of Monte-Carlo
// counting which channels a fiber cut destroys, f6dynamic runs the
// packet simulator through an actual cut — permutation traffic on a
// single Quartz ring, one fiber segment severed mid-run and repaired
// later — and measures throughput and latency before, during, and
// after, with the blackhole window set by the detection delay.

// Timing of the experiment (virtual time).
const (
	figF6Window    = 500 * sim.Microsecond
	figF6Duration  = 10 * sim.Millisecond
	figF6CutAt     = 3 * sim.Millisecond
	figF6RepairAt  = 7 * sim.Millisecond
	figF6Detection = 500 * sim.Microsecond
)

// FigureF6Window is one measurement window.
type FigureF6Window struct {
	Start sim.Time
	// Phase is where the window falls relative to the cut: "before",
	// "blackhole" (cut but not yet reconverged), "rerouted" (routes
	// avoid the severed links), or "repaired".
	Phase     string
	Delivered int
	Dropped   int
	// ThroughputGbps is delivered goodput over the window.
	ThroughputGbps float64
	// MeanLatencyUS is the mean delivery latency in the window (0 when
	// nothing was delivered).
	MeanLatencyUS float64
}

// FigureF6Result is the full run.
type FigureF6Result struct {
	Windows []FigureF6Window
	// SeveredLinks is how many logical mesh links the cut destroyed.
	SeveredLinks int
	// Changes logs the fault transitions (cut, repair, reconvergences).
	Changes []netsim.FaultChange
	// TotalDelivered and TotalDropped count the whole run.
	TotalDelivered, TotalDropped uint64
}

// figureF6Grid is one cell, the run under the seed: permutation traffic
// across a single Quartz ring (QuartzRingArch), fiber 0 segment 0 cut
// at 3 ms and repaired at 7 ms, reported in 500 µs windows. Routes
// reconverge 500 µs after each transition. The cell attaches a fault
// schedule, which reroutes, so it builds its own ring rather than
// asking the run's memo.
var figureF6Grid = Grid[int64, FigureF6Result, FigureF6Result]{
	Name:  "f6dynamic",
	Cells: func(p Params) []int64 { return []int64{p.Seed} },
	Run: func(_ Params, seed int64, sh Shared) (FigureF6Result, error) {
		return runFigureF6(seed, sh)
	},
	Merge: func(_ Params, _ []int64, runs []FigureF6Result) (FigureF6Result, error) { return runs[0], nil },
	Render: func(res FigureF6Result) Output {
		t := table.New("figuref6", len(res.Windows),
			"Start", "Phase", "Delivered", "Dropped", "ThroughputGbps", "MeanLatencyUS")
		for _, w := range res.Windows {
			t.Append(table.Fixed(w.Start.Micros(), 3), table.String(w.Phase), table.Int(w.Delivered),
				table.Int(w.Dropped), table.Float(w.ThroughputGbps), table.Float(w.MeanLatencyUS))
		}
		return Output{Text: RenderFigureF6(res), Tables: []table.Table{t}}
	},
}

// figF6Cut cuts fiber 0 segment 0 at 3 ms and repairs it at 7 ms;
// routes reconverge 500 µs after each transition.
var figF6Cut = netsim.FaultSchedule{
	Events: []netsim.FaultEvent{{
		Kind: netsim.FaultFiber, Fiber: 0, Segment: 0,
		At: figF6CutAt, RepairAt: figF6RepairAt,
	}},
	DetectionDelay: figF6Detection,
	Policy:         netsim.DropInFlight,
}

// figF6Windows is f6dynamic's probe: it counts every delivery and drop
// into its window of res and sums the windows' delivery latencies.
type figF6Windows struct {
	res    FigureF6Result
	latSum [figF6Duration / figF6Window]float64
}

// window is the index of the window at falls in; the last one takes
// the drain.
func (w *figF6Windows) window(at sim.Time) int { return min(int(at/figF6Window), len(w.latSum)-1) }

func (*figF6Windows) PacketEnqueued(netsim.QueueEvent)    {}
func (*figF6Windows) PacketTransmitted(netsim.QueueEvent) {}

func (w *figF6Windows) PacketDelivered(d netsim.Delivery) {
	i := w.window(d.At)
	w.res.Windows[i].Delivered++
	w.res.Windows[i].ThroughputGbps += float64(d.Packet.Size) * 8
	w.latSum[i] += d.Latency.Micros()
}

func (w *figF6Windows) PacketDropped(d netsim.Drop) { w.res.Windows[w.window(d.At)].Dropped++ }

// runFigureF6 is figureF6Grid's one cell.
func runFigureF6(seed int64, sh Shared) (FigureF6Result, error) {
	arch, err := core.QuartzRingArch(core.ArchParams{})
	if err != nil {
		return FigureF6Result{}, err
	}
	severed, err := arch.Ring.FiberLinks(0, 0)
	if err != nil {
		return FigureF6Result{}, err
	}
	probe := &figF6Windows{}
	res := &probe.res
	res.Windows, res.SeveredLinks = make([]FigureF6Window, len(probe.latSum)), len(severed)
	hosts := arch.Graph.Hosts()
	pk, err := sh.Build(PacketRun{
		Arch: arch, Probe: probe, Faults: &figF6Cut,
		OnFault: func(c netsim.FaultChange) { res.Changes = append(res.Changes, c) },
		Kind:    PairsKind, Tasks: 1, PPS: 20e3, Size: 1500, Seed: seed, End: figF6Duration,
	}, func(_ int, rng *rand.Rand) ([]topology.NodeID, [][2]topology.NodeID) {
		return nil, traffic.RandomPermutation(hosts, rng)
	})
	if err != nil {
		return FigureF6Result{}, err
	}
	defer pk.Release()
	if err := sh.Run(pk.Net, figF6Duration+2*sim.Millisecond); err != nil {
		return FigureF6Result{}, err
	}
	for i := range res.Windows {
		w := &res.Windows[i]
		w.Start = sim.Time(i) * figF6Window
		switch {
		case w.Start < figF6CutAt:
			w.Phase = "before"
		case w.Start < figF6CutAt+figF6Detection:
			w.Phase = "blackhole"
		case w.Start < figF6RepairAt:
			w.Phase = "rerouted"
		default:
			w.Phase = "repaired"
		}
		w.ThroughputGbps /= figF6Window.Seconds() * 1e9
		if w.Delivered > 0 {
			w.MeanLatencyUS = probe.latSum[i] / float64(w.Delivered)
		}
	}
	res.TotalDelivered = pk.Net.Delivered()
	res.TotalDropped = pk.Net.Dropped()
	return *res, nil
}

// RenderFigureF6 renders the windows as a table.
func RenderFigureF6(res FigureF6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure F6 (dynamic): fiber cut at %v, repair at %v, reconvergence after %v (%d links severed)\n",
		figF6CutAt, figF6RepairAt, figF6Detection, res.SeveredLinks)
	fmt.Fprintf(&b, "%10s %11s %10s %8s %12s %12s\n",
		"t (us)", "phase", "delivered", "dropped", "gbps", "latency(us)")
	for _, w := range res.Windows {
		fmt.Fprintf(&b, "%10.0f %11s %10d %8d %12.2f %12.2f\n",
			w.Start.Micros(), w.Phase, w.Delivered, w.Dropped, w.ThroughputGbps, w.MeanLatencyUS)
	}
	fmt.Fprintf(&b, "total: %d delivered, %d dropped\n", res.TotalDelivered, res.TotalDropped)
	return b.String()
}
