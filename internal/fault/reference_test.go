package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// The reference below is the trial kernel as it stood before the
// bit-parallel rewrite: one segment mask per arc, and a union–find over
// every arc of the plan in every trial. The tests assert that Simulate,
// the exact kernel's Monte Carlo oracle (montecarlo_test.go), returns
// the same bits and leaves the caller's rng at the same position.

type refModel struct {
	m, rings int
	arcs     []uint64
	arcRing  []int
	pairs    [][2]int
}

func newRefModel(plan *wdm.Plan) *refModel {
	rings := plan.Rings
	if rings == 0 {
		rings = 1
	}
	md := &refModel{m: plan.M, rings: rings}
	for _, a := range plan.Assignments {
		var mask uint64
		switch a.Dir {
		case wdm.Clockwise:
			for i := a.S; i != a.T; i = (i + 1) % plan.M {
				mask |= 1 << uint(i)
			}
		case wdm.CounterClockwise:
			for i := a.S; i != a.T; i = (i - 1 + plan.M) % plan.M {
				mask |= 1 << uint((i-1+plan.M)%plan.M)
			}
		}
		md.arcs = append(md.arcs, mask)
		md.arcRing = append(md.arcRing, a.Ring)
		md.pairs = append(md.pairs, [2]int{a.S, a.T})
	}
	return md
}

func refSimulate(plan *wdm.Plan, cuts, trials int, rng *rand.Rand) Result {
	md := newRefModel(plan)
	totalFibers := md.rings * md.m

	var res Result
	lossSum := 0.0
	partitions := 0

	cutMask := make([]uint64, md.rings)
	parent := make([]int, md.m)
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	for t := 0; t < trials; t++ {
		for r := range cutMask {
			cutMask[r] = 0
		}
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
		// Surviving logical links and connectivity.
		for i := range parent {
			parent[i] = i
		}
		lost := 0
		comps := md.m
		for i, mask := range md.arcs {
			if mask&cutMask[md.arcRing[i]] != 0 {
				lost++
				continue
			}
			a, b := find(md.pairs[i][0]), find(md.pairs[i][1])
			if a != b {
				parent[a] = b
				comps--
			}
		}
		lossSum += float64(lost) / float64(len(md.arcs))
		if comps > 1 {
			partitions++
		}
	}
	res.AvgBandwidthLoss = lossSum / float64(trials)
	res.PartitionProb = float64(partitions) / float64(trials)
	return res
}

// referencePlans returns the plans of the differential tests: a greedy
// plan for every ring size split over 1–4 fibers (as many as it has
// channels), for M >= 9 one whose three top channels carry nothing,
// split a channel to a ring (fiber rings with no arc to cut), and for
// M >= 3 a greedy plan whose hot pairs carry 2 and 3 parallel channels
// (several arcs for one switch pair, the case an adjacency shortcut
// would get wrong).
func referencePlans(t *testing.T) map[string]*wdm.Plan {
	t.Helper()
	plans := map[string]*wdm.Plan{}
	for _, m := range []int{2, 3, 9, 33, 64} {
		base := wdm.Greedy(m, rand.New(rand.NewSource(int64(m))))
		for rings := 1; rings <= min(4, base.Channels); rings++ {
			p, err := wdm.SplitAcrossRings(base, rings, (base.Channels+rings-1)/rings)
			if err != nil {
				t.Fatal(err)
			}
			plans[fmt.Sprintf("greedy M=%d rings=%d", m, rings)] = p
		}
		if m >= 9 {
			idle := *base
			idle.Channels += 3
			p, err := wdm.SplitAcrossRings(&idle, idle.Channels, 1)
			if err != nil {
				t.Fatal(err)
			}
			plans[fmt.Sprintf("idle rings M=%d", m)] = p
		}
		if m < 3 {
			continue
		}
		// Each extra channel gets a wavelength of its own, on alternating
		// sides of the ring.
		w := wdm.Greedy(m, rand.New(rand.NewSource(int64(m))))
		for i, hot := range [][2]int{{0, m / 2}, {0, m / 2}, {1, m - 1}, {0, 1}} {
			w.Assignments = append(w.Assignments, wdm.Assignment{
				S: hot[0], T: hot[1], Dir: wdm.Direction(i % 2), Channel: w.Channels,
			})
			w.Channels++
		}
		plans[fmt.Sprintf("weighted M=%d", m)] = w
		w2, err := wdm.SplitAcrossRings(w, 2, (w.Channels+1)/2)
		if err != nil {
			t.Fatal(err)
		}
		plans[fmt.Sprintf("weighted M=%d rings=2", m)] = w2
	}
	return plans
}

func TestSimulateMatchesReference(t *testing.T) {
	for name, p := range referencePlans(t) {
		rings := p.Rings
		if rings == 0 {
			rings = 1
		}
		for cuts := 0; cuts <= 6 && cuts <= rings*p.M; cuts++ {
			seed := int64(100*cuts + p.M)
			refRng := rand.New(rand.NewSource(seed))
			want := refSimulate(p, cuts, 300, refRng)
			rng := rand.New(rand.NewSource(seed))
			got, err := Simulate(p, cuts, 300, rng)
			if err != nil {
				t.Fatalf("%s cuts=%d: %v", name, cuts, err)
			}
			if got != want {
				t.Errorf("%s cuts=%d: got %+v, reference %+v", name, cuts, got, want)
			}
			if a, b := rng.Int63(), refRng.Int63(); a != b {
				t.Errorf("%s cuts=%d: rng left at a different position (%d vs %d)", name, cuts, a, b)
			}
		}
	}
}
