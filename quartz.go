// Package quartz is a Go implementation of Quartz (Liu, Gao, Wong,
// Keshav — SIGCOMM 2014): a datacenter network design element that
// implements a logical full mesh of low-latency switches as a physical
// WDM ring.
//
// The package is a small façade over internal/ with three verbs:
//
//   - RunScenario executes one JSON scenario document (SCENARIOS.md) —
//     a packet-level simulation, a registry experiment, or a sweep of
//     either — on the runner quartzsim and quartzd use.
//   - Experiments and FindExperiment give the registry of reproduced
//     tables and figures (quartzsim -list).
//   - NewRing and the channel helpers plan a ring (§3), and FiberCuts
//     computes what fiber cuts cost it (§3.5).
//
// It re-exports nothing of the simulator's wiring (networks, routers,
// probes, transports): a run is a document, not hand assembly (DESIGN.md §3).
package quartz

import (
	"context"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/fault"
	"github.com/quartz-dcn/quartz/internal/optics"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/wdm"
)

type (
	// Experiment is one registry entry; Run executes it.
	Experiment = experiments.Experiment
	// Params carries the experiment knobs; zero fields take defaults.
	Params = experiments.Params
	// Output is an experiment's rendered text and exported tables.
	Output = experiments.Output
	// Ring is a planned ring: logical mesh, channel plan, optical budget.
	Ring = core.Ring
	// RingConfig parameterizes NewRing.
	RingConfig = core.RingConfig
	// ChannelPlan is a wavelength assignment for a ring.
	ChannelPlan = wdm.Plan
)

// RunScenario decodes, validates, compiles and runs one scenario
// document; the error lists every offending field of a bad one.
func RunScenario(ctx context.Context, doc []byte) (Output, error) {
	f, err := scenario.Decode(doc, "scenario")
	if err != nil {
		return Output{}, err
	}
	c, err := scenario.Compile(f)
	if err != nil {
		return Output{}, err
	}
	return c.Experiment.Run(ctx, c.Params)
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment { return experiments.All() }

// FindExperiment looks a registry entry up by its name (quartzsim -run NAME).
func FindExperiment(name string) (Experiment, bool) { return experiments.Find(name) }

// NewRing plans a ring: channels, fiber split, amplifiers (§3).
func NewRing(cfg RingConfig) (*Ring, error) { return core.NewRing(cfg) }

// MaxPortsSingleRing returns the largest switch one ring can mimic, and
// its ring size (1056 ports at 33 switches of 64 ports; §3.2).
func MaxPortsSingleRing(switchPorts int) (ports, ringSize int) {
	return core.MaxPortsSingleRing(switchPorts)
}

// GreedyChannels runs the paper's greedy channel assignment (§3.1.1).
func GreedyChannels(m int, rng *rand.Rand) *ChannelPlan { return wdm.Greedy(m, rng) }

// OptimalChannels returns the proven minimum number of wavelengths for
// a ring of m switches — the value the paper's ILP computes.
func OptimalChannels(m int) int { return wdm.OptimalChannels(m) }

// MaxRingSize returns the largest ring a channel budget supports (35 at 160).
func MaxRingSize(channelBudget int) int { return wdm.MaxRingSize(channelBudget) }

// ExpandPlan grows a single-fiber plan to newM switches (§8): kept
// channels stay on their wavelength; only splice-crossing arcs retune.
func ExpandPlan(old *ChannelPlan, newM int, rng *rand.Rand) (*ChannelPlan, wdm.ExpansionStats, error) {
	return wdm.ExpandPlan(old, newM, rng)
}

// PlanAmplifiers computes the §3.3 amplifier plan for a ring.
func PlanAmplifiers(ringSize int) (optics.RingBudget, error) {
	return optics.PlanRing(ringSize, optics.DefaultParts)
}

// FiberCuts computes, exactly, the expected bandwidth loss and the
// partition probability of `cuts` distinct fiber cuts on any plan
// (§3.5; one cell of Figure 6). The count can take minutes on plans
// whose rings are split already; it returns ctx.Err() once ctx is done.
func FiberCuts(ctx context.Context, plan *ChannelPlan, cuts int) (fault.Result, error) {
	return fault.FiberCuts(ctx, plan, cuts)
}
