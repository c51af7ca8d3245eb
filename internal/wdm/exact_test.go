package wdm

import (
	"fmt"
	"sort"
)

// ExactBranchBound and LowerBound are the tests' exact oracle for the
// closed form OptimalChannels: production plans with Greedy and counts
// with OptimalChannels, and neither needs a search or a bound.

// LowerBound returns a simple link-load lower bound on the number of
// wavelengths for all-pairs traffic on a ring of M switches: the total
// fiber-link demand of shortest-arc routing divided by the M links. It
// is tight for odd M and one or two below the true optimum for even M
// (see OptimalChannels).
func LowerBound(m int) int {
	if m < 2 {
		return 0
	}
	k := m / 2
	if m%2 == 1 {
		return k * (k + 1) / 2
	}
	// Forced (non-diametral) load per link plus the averaged diametral
	// load, rounded up.
	return k*(k-1)/2 + (k+1)/2
}

// ExactBranchBound finds the true minimum number of channels by
// branch-and-bound over direction and channel choices — the same search
// space as the paper's ILP (Eqs. 1-6). Exponential: limited to m <= 10
// (45 pairs), which is enough to verify OptimalChannels on all three
// residue classes of the closed form; above that, Greedy witnesses it
// (TestGreedyWitnessesClosedForm).
func ExactBranchBound(m int) (*Plan, error) {
	if m < 2 {
		return &Plan{M: m, Rings: 1}, nil
	}
	if m > 10 {
		return nil, fmt.Errorf("wdm: exact solver limited to m<=10, got %d", m)
	}
	pairs := Pairs(m)
	// Order pairs by decreasing shortest-arc length (most constrained
	// first) for better pruning.
	ord := make([]int, len(pairs))
	for i := range ord {
		ord[i] = i
	}
	shortLen := func(i int) int {
		cw := arcLen(m, pairs[i][0], pairs[i][1], Clockwise)
		if c2 := arcLen(m, pairs[i][0], pairs[i][1], CounterClockwise); c2 < cw {
			return c2
		}
		return cw
	}
	sort.SliceStable(ord, func(a, b int) bool { return shortLen(ord[a]) > shortLen(ord[b]) })

	// Start from the greedy solution as the incumbent upper bound.
	incumbent := Greedy(m, nil)
	bestChannels := incumbent.Channels
	lb := LowerBound(m)
	if bestChannels == lb {
		return incumbent, nil
	}
	bestAssign := append([]Assignment(nil), incumbent.Assignments...)

	// usage[ch][link] occupancy; assign[k] is the choice for ord[k].
	usage := make([][]bool, 0, bestChannels)
	assign := make([]Assignment, len(pairs))

	var rec func(k, used int)
	rec = func(k, used int) {
		if used >= bestChannels {
			return
		}
		if k == len(pairs) {
			bestChannels = used
			copy(bestAssign, assign)
			return
		}
		i := ord[k]
		s, t := pairs[i][0], pairs[i][1]
		// Try the shorter arc first (better incumbent sooner), but do
		// explore both directions: the ILP's Eq. 2 allows either.
		dirOrder := []Direction{Clockwise, CounterClockwise}
		if arcLen(m, s, t, CounterClockwise) < arcLen(m, s, t, Clockwise) {
			dirOrder = []Direction{CounterClockwise, Clockwise}
		}
		for _, dir := range dirOrder {
			tryChannels := used + 1
			if tryChannels > bestChannels-1 {
				tryChannels = bestChannels - 1
			}
			for c := 0; c < tryChannels && c <= used; c++ {
				if c == used {
					usage = append(usage, make([]bool, m))
				}
				free := true
				arcLinks(m, s, t, dir, func(l int) {
					if usage[c][l] {
						free = false
					}
				})
				if free {
					arcLinks(m, s, t, dir, func(l int) { usage[c][l] = true })
					assign[k] = Assignment{S: s, T: t, Dir: dir, Channel: c}
					next := used
					if c == used {
						next = used + 1
					}
					rec(k+1, next)
					arcLinks(m, s, t, dir, func(l int) { usage[c][l] = false })
				}
				if c == used {
					usage = usage[:used]
				}
				if bestChannels == lb {
					return
				}
			}
		}
	}
	rec(0, 0)
	plan := &Plan{M: m, Channels: bestChannels, Rings: 1, Assignments: bestAssign}
	return plan, nil
}
