// Package fault evaluates Quartz ring resilience to fiber cuts (§3.5,
// Figure 6 of the paper). A Quartz deployment carries its wavelength
// channels on one or more physical fiber rings; a fiber cut on one ring
// segment destroys every channel whose arc crosses that segment on that
// ring. The package measures
//
//   - aggregate bandwidth loss: the fraction of logical mesh links
//     (switch pairs) destroyed, and
//   - partition probability: whether the surviving logical mesh (using
//     multi-hop paths) still connects all switches.
//
// Sweep, Figure 6's producer, computes both exactly (exact.go).
// Simulate estimates them by Monte Carlo for any plan, and Availability
// samples a steady state of independent failures and repairs.
package fault

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// Result is one cell of Figure 6: a Monte-Carlo estimate (Simulate) or
// the exact value (Sweep).
type Result struct {
	// Rings is the number of physical fiber rings.
	Rings int
	// Cuts is the number of simultaneously failed fiber segments.
	Cuts int
	// Trials is the number of Monte-Carlo trials, 0 for an exact cell.
	Trials int
	// AvgBandwidthLoss is the mean fraction of logical links lost.
	AvgBandwidthLoss float64
	// PartitionProb is the fraction of trials, or of all cut sets, in
	// which the surviving logical mesh was disconnected.
	PartitionProb float64
}

// model precomputes, for every fiber segment of every ring, the set of
// channel assignments (arcs) that cross it, as a bitset over arc
// indices: a trial ORs the rows of its cut segments and reads the loss
// off a popcount instead of testing every arc against the cuts. Ring
// sizes are <= 64 so a uint64 mask covers one ring's segments.
type model struct {
	m, rings int
	// pairs[i] holds the two switches arc i joins.
	pairs [][2]uint8
	// crossing[ring][seg*words:][:words] is the bitset of the arcs that
	// cross segment seg of that ring; a ring that carries no arc has no
	// rows, so memory follows the arcs, not the plan's ring count.
	crossing [][]uint64
	words    int
	// crossed[ring] marks the segments of that ring that some arc
	// crosses; segments has a bit for each of the M segment indices.
	crossed  []uint64
	segments uint64
	// dead is evaluate's scratch: the model belongs to the one call
	// that built it.
	dead []uint64
}

// checkPlan returns the number of fiber rings of a plan both kernels
// can take: 2 ≤ M ≤ 64, at least one arc, and every arc joining two
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
	// A decoded plan's header is only checked for signs. Memory and each
	// trial's work grow with the ring count, so it is held to what the
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

func newModel(plan *wdm.Plan) (*model, error) {
	rings, err := checkPlan(plan)
	if err != nil {
		return nil, err
	}
	m := plan.M
	words := (len(plan.Assignments) + 63) / 64
	md := &model{
		m: m, rings: rings, words: words,
		pairs:    make([][2]uint8, len(plan.Assignments)),
		crossing: make([][]uint64, rings),
		crossed:  make([]uint64, rings),
		segments: math.MaxUint64 >> uint(64-m),
		dead:     make([]uint64, words),
	}
	for i, a := range plan.Assignments {
		if md.crossing[a.Ring] == nil {
			md.crossing[a.Ring] = make([]uint64, m*words)
		}
		for seg := 0; seg < m; seg++ {
			if a.Crosses(m, seg) {
				md.crossing[a.Ring][seg*words+i/64] |= 1 << uint(i%64)
				md.crossed[a.Ring] |= 1 << uint(seg)
			}
		}
		md.pairs[i] = [2]uint8{uint8(a.S), uint8(a.T)}
	}
	return md, nil
}

// evaluate is the one trial kernel: given each ring's mask of cut
// segments it returns how many arcs are destroyed and whether the
// surviving logical mesh is disconnected. When two segment indices are
// closed the answer is yes without looking at a single arc; otherwise
// union–find over the survivors decides.
func (md *model) evaluate(cutMask []uint64) (lost int, partitioned bool) {
	lost = md.kill(cutMask)
	if c := md.closed(cutMask); c&(c-1) != 0 {
		return lost, true
	}
	return lost, md.disconnected()
}

// kill marks in md.dead every arc that crosses a cut segment of its ring
// and returns how many there are.
func (md *model) kill(cutMask []uint64) (lost int) {
	clear(md.dead)
	for r, mask := range cutMask {
		for ; mask != 0 && md.crossing[r] != nil; mask &= mask - 1 {
			row := md.crossing[r][bits.TrailingZeros64(mask)*md.words:][:md.words]
			for w, b := range row {
				md.dead[w] |= b
			}
		}
	}
	for _, dead := range md.dead {
		lost += bits.OnesCount64(dead)
	}
	return lost
}

// closed returns the segment indices s at which every arc that crosses s,
// on whichever ring carries it, is cut: on every ring, segment s is cut
// or no arc of that ring crosses it. Every arc between the switches on
// the two sides of two closed indices crosses one of them, so two closed
// indices mean a partition. On one ring every cut segment is closed.
func (md *model) closed(cutMask []uint64) uint64 {
	c := md.segments
	for r, mask := range cutMask {
		c &= mask | ^md.crossed[r]
	}
	return c
}

// disconnected runs union–find over the arcs kill left alive and reports
// whether more than one component remains. It stops once everything is
// joined — in a near-full mesh after a few dozen arcs, not all of them —
// and makes no assumption of one arc per switch pair (a plan may give a
// pair several).
func (md *model) disconnected() bool {
	var f forest
	f.reset(md.m)
	comps := md.m
	for w, dead := range md.dead {
		live := ^dead
		if rest := len(md.pairs) - 64*w; rest < 64 {
			live &= 1<<uint(rest) - 1
		}
		for ; live != 0 && comps > 1; live &= live - 1 {
			pair := md.pairs[64*w+bits.TrailingZeros64(live)]
			if f.union(pair[0], pair[1]) {
				comps--
			}
		}
	}
	return comps > 1
}

// Simulate runs trials of cutting `cuts` distinct fiber segments
// (chosen uniformly over all rings' segments) on the given plan.
func Simulate(plan *wdm.Plan, cuts, trials int, rng *rand.Rand) (Result, error) {
	if cuts < 0 {
		return Result{}, fmt.Errorf("fault: negative cuts")
	}
	if trials < 1 {
		return Result{}, fmt.Errorf("fault: need at least one trial")
	}
	if rng == nil {
		return Result{}, fmt.Errorf("fault: nil rng")
	}
	md, err := newModel(plan)
	if err != nil {
		return Result{}, err
	}
	totalFibers := md.rings * md.m
	if cuts > totalFibers {
		return Result{}, fmt.Errorf("fault: %d cuts exceed %d fiber segments", cuts, totalFibers)
	}

	res := Result{Rings: md.rings, Cuts: cuts, Trials: trials}
	lossSum := 0.0
	partitions := 0
	cutMask := make([]uint64, md.rings)
	for t := 0; t < trials; t++ {
		clear(cutMask)
		// Sample `cuts` distinct fibers by rejection (cuts is tiny).
		chosen := 0
		for chosen < cuts {
			f := rng.Intn(totalFibers)
			r, seg := f/md.m, f%md.m
			bit := uint64(1) << uint(seg)
			if cutMask[r]&bit != 0 {
				continue
			}
			cutMask[r] |= bit
			chosen++
		}
		lost, partitioned := md.evaluate(cutMask)
		// Divide per trial, in trial order: summing the integer losses
		// and dividing once would round differently.
		lossSum += float64(lost) / float64(len(md.pairs))
		if partitioned {
			partitions++
		}
	}
	res.AvgBandwidthLoss = lossSum / float64(trials)
	res.PartitionProb = float64(partitions) / float64(trials)
	return res, nil
}

// AvailabilityParams describes a fiber failure/repair process for
// steady-state availability analysis — the operational question behind
// §3.5: with real failure and repair rates, how often is the mesh
// degraded or partitioned?
type AvailabilityParams struct {
	// MTBFHours is each fiber segment's mean time between failures.
	MTBFHours float64
	// MTTRHours is the mean time to repair one cut.
	MTTRHours float64
	// Trials is the number of steady-state samples.
	Trials int
}

// AvailabilityResult summarizes steady-state behaviour.
type AvailabilityResult struct {
	Rings int
	// SegmentUnavailability is each fiber's independent probability of
	// being down: MTTR / (MTBF + MTTR).
	SegmentUnavailability float64
	// MeanBandwidthLoss is the expected fraction of logical links down
	// at a random instant.
	MeanBandwidthLoss float64
	// PartitionProb is the probability the logical mesh is partitioned
	// at a random instant.
	PartitionProb float64
	// MeanConcurrentCuts is the expected number of simultaneously
	// failed fibers.
	MeanConcurrentCuts float64
}

// Availability samples the steady state of independent per-segment
// failure/repair processes: each fiber segment is down independently
// with probability MTTR/(MTBF+MTTR), the standard two-state Markov
// availability model.
func Availability(plan *wdm.Plan, p AvailabilityParams, rng *rand.Rand) (AvailabilityResult, error) {
	if !(p.MTBFHours > 0 && p.MTTRHours > 0) || math.IsInf(p.MTBFHours+p.MTTRHours, 1) {
		return AvailabilityResult{}, fmt.Errorf("fault: MTBF and MTTR must be positive and finite")
	}
	if p.Trials < 1 {
		return AvailabilityResult{}, fmt.Errorf("fault: need at least one trial")
	}
	if rng == nil {
		return AvailabilityResult{}, fmt.Errorf("fault: nil rng")
	}
	md, err := newModel(plan)
	if err != nil {
		return AvailabilityResult{}, err
	}
	unavail := p.MTTRHours / (p.MTBFHours + p.MTTRHours)
	res := AvailabilityResult{Rings: md.rings, SegmentUnavailability: unavail}

	cutMask := make([]uint64, md.rings)
	lossSum, cutsSum := 0.0, 0.0
	partitions := 0
	for t := 0; t < p.Trials; t++ {
		cuts := 0
		for r := 0; r < md.rings; r++ {
			cutMask[r] = 0
			for seg := 0; seg < md.m; seg++ {
				if rng.Float64() < unavail {
					cutMask[r] |= 1 << uint(seg)
					cuts++
				}
			}
		}
		cutsSum += float64(cuts)
		lost, partitioned := md.evaluate(cutMask)
		lossSum += float64(lost) / float64(len(md.pairs))
		if partitioned {
			partitions++
		}
	}
	res.MeanBandwidthLoss = lossSum / float64(p.Trials)
	res.PartitionProb = float64(partitions) / float64(p.Trials)
	res.MeanConcurrentCuts = cutsSum / float64(p.Trials)
	return res, nil
}
