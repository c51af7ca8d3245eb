// Package fault evaluates Quartz ring resilience to fiber cuts (§3.5,
// Figure 6 of the paper). A Quartz deployment carries its wavelength
// channels on one or more physical fiber rings; a fiber cut on one ring
// segment destroys every channel whose arc crosses that segment on that
// ring. For c distinct cut segments, uniform over all rings' segments,
// the package computes exactly, without sampling (exact.go),
//
//   - the expected bandwidth loss: the fraction of logical mesh links
//     (channel arcs) destroyed, and
//   - the partition probability: the fraction of cut sets after which
//     the surviving logical mesh (using multi-hop paths) no longer
//     connects all switches.
//
// FiberCuts gives one cell for any plan, and Sweep Figure 6's grid. The
// partition count is exponential in c on some plans, so both poll their
// context.
package fault

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// Result is one cell of Figure 6.
type Result struct {
	// AvgBandwidthLoss is the expected fraction of logical links lost.
	AvgBandwidthLoss float64
	// PartitionProb is the fraction of all cut sets after which the
	// surviving logical mesh is disconnected.
	PartitionProb float64
}

// checkPlan returns the number of fiber rings of a plan the kernel can
// take: 2 ≤ M ≤ 64, at least one arc, and every arc joining two
// switches of the ring on one of its rings.
func checkPlan(plan *wdm.Plan) (rings int, err error) {
	if plan.M < 2 {
		return 0, fmt.Errorf("fault: ring too small (M=%d)", plan.M)
	}
	if plan.M > 64 {
		return 0, fmt.Errorf("fault: M=%d exceeds the 64-segment mask", plan.M)
	}
	if len(plan.Assignments) == 0 {
		return 0, fmt.Errorf("fault: plan has no assignments, so nothing to lose")
	}
	m, rings := plan.M, plan.Rings
	if rings == 0 {
		rings = 1
	}
	// A decoded plan's header is only checked for signs. Memory and the
	// count's work grow with the ring count, so it is held to what the
	// arcs can use: no more rings than channels, nor than arcs.
	if rings > max(1, min(plan.Channels, len(plan.Assignments))) {
		return 0, fmt.Errorf("fault: %d fiber rings for %d channels on %d arcs: %w",
			rings, plan.Channels, len(plan.Assignments), wdm.ErrIdleRings)
	}
	for i, a := range plan.Assignments {
		// A decoded plan is only checked for non-negative header fields;
		// an arc must join two switches of the ring on one of its rings.
		if a.S < 0 || a.S >= m || a.T < 0 || a.T >= m || a.S == a.T ||
			a.Ring < 0 || a.Ring >= rings || a.Dir > wdm.CounterClockwise {
			return 0, fmt.Errorf("fault: assignment %d (pair %d-%d, direction %d, ring %d) does not fit M=%d with %d ring(s)",
				i, a.S, a.T, a.Dir, a.Ring, m, rings)
		}
	}
	return rings, nil
}

// FiberCuts computes the cell of `cuts` simultaneous cuts for any plan
// exactly. The partition count is exponential in the cuts on plans
// whose rings are split already (a 64-switch path spread over four rings
// needs minutes at four cuts), so it polls ctx and returns ctx.Err()
// once ctx is done; a nil ctx means no cancellation.
func FiberCuts(ctx context.Context, plan *wdm.Plan, cuts int) (Result, error) {
	x, err := newExact(ctx, plan)
	if err != nil {
		return Result{}, err
	}
	return x.cell(cuts)
}

// Sweep reproduces Figure 6's grid exactly: for each ring count
// 1..maxRings, it builds the channel plan for a ring of the given size
// (the one draw from rng), splits it across that many fibers, and
// computes the expected loss and the partition probability of 1..maxCuts
// simultaneous cuts. Results are indexed [rings-1][cuts-1]. Cancelling
// ctx aborts the sweep with ctx.Err(), at the next cell or within its
// count; a nil ctx means no cancellation.
func Sweep(ctx context.Context, ringSize, maxRings, maxCuts int, rng *rand.Rand) ([][]Result, error) {
	if maxRings < 1 || maxCuts < 1 {
		return nil, fmt.Errorf("fault: invalid sweep %dx%d", maxRings, maxCuts)
	}
	base := wdm.Greedy(ringSize, rng)
	out := make([][]Result, maxRings)
	for r := 1; r <= maxRings; r++ {
		// Channels are dealt round-robin across r fibers; per-fiber
		// capacity is whatever that requires (the paper's deployments
		// add whole muxes per ring as needed).
		plan, err := wdm.SplitAcrossRings(base, r, (base.Channels+r-1)/r)
		if err != nil {
			return nil, err
		}
		x, err := newExact(ctx, plan)
		if err != nil {
			return nil, err
		}
		out[r-1] = make([]Result, maxCuts)
		for c := 1; c <= maxCuts; c++ {
			if out[r-1][c-1], err = x.cell(c); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
