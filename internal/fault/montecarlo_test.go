package fault

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// The Monte Carlo below is how Figure 6 was estimated before the exact
// kernel: trials of uniformly drawn cut sets, each evaluated by bitset
// loss and union–find. It lives only in the tests, as the exact
// kernel's independent oracle: partitionsByCuts runs evaluate over every
// cut set, and the audits hold the Monte Carlo Figure 6 once printed to
// the closed form and the counts.

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

	var res Result
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
