package wdm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// Greedy runs the paper's greedy channel assignment (§3.1.1): paths are
// grouped by length and processed longest-first (long paths are the most
// constrained, so assigning them early avoids fragmenting the channel
// space); within a length group, assignment starts from a random ring
// location. Each path takes the lowest-numbered channel free on all of
// its links. rng may be nil for a deterministic start location.
func Greedy(m int, rng *rand.Rand) *Plan {
	if m < 2 {
		return &Plan{M: m, Rings: 1}
	}
	pairs := Pairs(m)
	dirs := shortestDirections(m)
	lens := make([]int, len(pairs))
	order := make([]int, len(pairs))
	for i, pr := range pairs {
		lens[i] = arcLen(m, pr[0], pr[1], dirs[i])
		order[i] = i
	}
	start := 0
	if rng != nil {
		start = rng.Intn(m)
	}
	// Longest first; within a length, from the start location round the
	// ring; within both, in Pairs order.
	slices.SortStableFunc(order, func(i, j int) int {
		if lens[i] != lens[j] {
			return lens[j] - lens[i]
		}
		return (pairs[i][0]-start+m)%m - (pairs[j][0]-start+m)%m
	})

	occ := newOccupancy(m)
	arc := make([]uint64, occ.w)
	assigned := make([]Assignment, len(order))
	for k, i := range order {
		pr := pairs[i]
		arcMask(arc, m, pr[0], pr[1], dirs[i])
		assigned[k] = Assignment{S: pr[0], T: pr[1], Dir: dirs[i], Channel: occ.firstFit(arc)}
	}
	return &Plan{M: m, Channels: occ.channels(), Rings: 1, Assignments: assigned}
}

// MaxChannelsPerFiber is the per-fiber channel budget the paper assumes:
// current fiber supports 160 channels at 10 Gb/s (§3.1, Figure 5).
const MaxChannelsPerFiber = 160

// CommodityMuxChannels is the channel count of a commodity DWDM
// mux/demux (§3.1: "commodity WDMs support about 80 channels").
const CommodityMuxChannels = 80

// MaxRingSizeSingleFiber is the largest ring a single 160-channel fiber
// supports: 35 switches (Figure 5's conclusion).
const MaxRingSizeSingleFiber = 35

// MaxRingSize returns the largest ring size whose optimal channel count
// fits within the given per-fiber channel budget. With the paper's
// 160-channel budget this is 35.
func MaxRingSize(channelBudget int) int {
	m := 2
	for OptimalChannels(m+1) <= channelBudget {
		m++
	}
	return m
}

// ErrIdleRings rejects a plan with more fiber rings than channels.
// Channels are dealt to rings round-robin, so the extra rings would
// carry nothing: no switch pair to connect, no arc to cut.
var ErrIdleRings = errors.New("wdm: more fiber rings than channels")

// SplitAcrossRings distributes a plan's channels over numRings physical
// fiber rings, each carrying at most perFiber channels (§3.5: a 33-switch
// Quartz needs 137 channels, hence two 80-channel muxes forming two
// rings). Channels are dealt round-robin so failures of one fiber spread
// across switch pairs. The input plan is not modified. A second ring or
// more for a plan with fewer channels is ErrIdleRings.
func SplitAcrossRings(p *Plan, numRings, perFiber int) (*Plan, error) {
	if numRings < 1 {
		return nil, fmt.Errorf("wdm: numRings %d < 1", numRings)
	}
	if numRings > max(1, p.Channels) {
		return nil, fmt.Errorf("%w: %d rings for %d channels", ErrIdleRings, numRings, p.Channels)
	}
	if p.Channels > numRings*perFiber {
		return nil, fmt.Errorf("wdm: %d channels do not fit in %d rings of %d channels",
			p.Channels, numRings, perFiber)
	}
	out := &Plan{M: p.M, Channels: p.Channels, Rings: numRings}
	out.Assignments = make([]Assignment, len(p.Assignments))
	for i, a := range p.Assignments {
		a.Ring = a.Channel % numRings
		out.Assignments[i] = a
	}
	return out, nil
}
