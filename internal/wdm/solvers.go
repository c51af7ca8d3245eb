package wdm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// Optimal searches for a minimum-channel plan by colouring the
// circular-arc conflict graph (arcs conflict when they share a fiber
// link) using iterated greedy colouring (Culberson-style: re-running
// first-fit with arcs grouped by their previous colour classes never
// increases the colour count, and permuting the classes explores the
// plateau). For even rings it also re-splits the diametral pairs.
//
// The returned plan always satisfies both §3.1 invariants and uses at
// least OptimalChannels(m) channels; the search stops as soon as it
// reaches that proven minimum, which it reliably does for small and
// mid-sized rings (and is within a few channels elsewhere — mirroring
// the paper's own deployment of the greedy plan: §3.5 quotes 137
// channels for M=33 where the true optimum is 136). Use
// OptimalChannels for the exact minimum count itself.
func Optimal(m int, rng *rand.Rand) *Plan {
	if m < 2 {
		return &Plan{M: m, Rings: 1}
	}
	if m > 64 {
		// One uint64 link mask per channel; rings beyond 64 switches are
		// far past the 35-switch fiber limit anyway.
		panic(fmt.Sprintf("wdm: Optimal supports m <= 64, got %d", m))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	target := OptimalChannels(m)
	pairs := Pairs(m)

	best := Greedy(m, rng)
	if best.Channels == target {
		return best
	}

	// Arc bitmasks for the current direction assignment.
	masks := make([]uint64, len(pairs))
	lens := make([]int, len(pairs))
	buildMasks := func(dirs []Direction) {
		for i, pr := range pairs {
			var mask uint64
			arcLinks(m, pr[0], pr[1], dirs[i], func(l int) { mask |= 1 << uint(l) })
			masks[i] = mask
			lens[i] = arcLen(m, pr[0], pr[1], dirs[i])
		}
	}

	// firstFit colours arcs in the given order, lowest free channel
	// first, and returns the per-arc colours and the channel count.
	firstFit := func(order []int) ([]int, int) {
		usage := make([]uint64, 0, best.Channels)
		color := make([]int, len(pairs))
		for _, i := range order {
			c := 0
			for ; c < len(usage); c++ {
				if usage[c]&masks[i] == 0 {
					break
				}
			}
			if c == len(usage) {
				usage = append(usage, 0)
			}
			usage[c] |= masks[i]
			color[i] = c
		}
		return color, len(usage)
	}

	record := func(dirs []Direction, color []int, channels int) *Plan {
		plan := &Plan{M: m, Channels: channels, Rings: 1}
		for i, pr := range pairs {
			plan.Assignments = append(plan.Assignments, Assignment{
				S: pr[0], T: pr[1], Dir: dirs[i], Channel: color[i],
			})
		}
		return plan
	}

	const outerTries = 8
	const innerIters = 1200
	for outer := 0; outer < outerTries && best.Channels > target; outer++ {
		dirs := shortestDirections(m)
		if m%2 == 0 && outer > 0 {
			// Re-split the diametral pairs randomly: the conflict graph
			// itself depends on this choice.
			for i, pr := range pairs {
				if arcLen(m, pr[0], pr[1], Clockwise) == m/2 && rng.Intn(2) == 0 {
					dirs[i] ^= 1
				}
			}
		}
		buildMasks(dirs)

		// Initial order: longest arcs first, random tie-break.
		order := make([]int, len(pairs))
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] > lens[order[b]] })

		color, channels := firstFit(order)
		if channels < best.Channels {
			best = record(dirs, color, channels)
			if channels == target {
				break
			}
		}
		for iter := 0; iter < innerIters; iter++ {
			// Group arcs by colour class and permute the classes.
			classes := make([][]int, channels)
			for i, c := range color {
				classes[c] = append(classes[c], i)
			}
			switch iter % 3 {
			case 0: // random class order
				rng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
			case 1: // largest classes first
				sort.SliceStable(classes, func(a, b int) bool { return len(classes[a]) > len(classes[b]) })
			case 2: // reverse
				for a, b := 0, len(classes)-1; a < b; a, b = a+1, b-1 {
					classes[a], classes[b] = classes[b], classes[a]
				}
			}
			order = order[:0]
			for _, cl := range classes {
				order = append(order, cl...)
			}
			color, channels = firstFit(order)
			if channels < best.Channels {
				best = record(dirs, color, channels)
				if channels == target {
					return best
				}
			}
		}
	}
	return best
}

// ExactBranchBound finds the true minimum number of channels by
// branch-and-bound over direction and channel choices — the same search
// space as the paper's ILP (Eqs. 1-6). Exponential: limited to m <= 10
// (45 pairs), which is enough to verify OptimalChannels on all three
// residue classes of the closed form; larger rings should use Optimal.
func ExactBranchBound(m int) (*Plan, error) {
	if m < 2 {
		return &Plan{M: m, Rings: 1}, nil
	}
	if m > 10 {
		return nil, fmt.Errorf("wdm: exact solver limited to m<=10, got %d (use Optimal)", m)
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
