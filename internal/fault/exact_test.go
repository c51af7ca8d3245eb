package fault

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// smallPlans calls f with the greedy plan for every M = 2…9 (seeded by
// M) split over one to four rings, as many as it has channels.
func smallPlans(t *testing.T, f func(name string, plan *wdm.Plan)) {
	t.Helper()
	for m := 2; m <= 9; m++ {
		base := wdm.Greedy(m, rand.New(rand.NewSource(int64(m))))
		for rings := 1; rings <= min(4, base.Channels); rings++ {
			plan, err := wdm.SplitAcrossRings(base, rings, (base.Channels+rings-1)/rings)
			if err != nil {
				t.Fatal(err)
			}
			f(fmt.Sprintf("M=%d rings=%d", m, rings), plan)
		}
	}
}

func mustExact(t testing.TB, plan *wdm.Plan) *exact {
	t.Helper()
	x, err := newExact(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func mustCell(t testing.TB, x *exact, c int) Result {
	t.Helper()
	res, err := x.cell(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkExact holds the exact kernel to its oracles on one plan for one
// to k cuts: the partition count equals evaluate's over every cut set,
// the cell's probability is that count over C(rM, c), and the float64
// loss is within 1e-12 of the closed form in exact rationals.
func checkExact(t *testing.T, name string, plan *wdm.Plan, k int) {
	t.Helper()
	md, err := newModel(plan)
	if err != nil {
		t.Fatal(err)
	}
	x := mustExact(t, plan)
	sets, partitioned, _ := partitionsByCuts(md, k)
	for c := 1; c <= min(k, x.n); c++ {
		if got := x.partitions(c); got != partitioned[c] {
			t.Fatalf("%s cuts=%d: kernel counts %d partitioning sets, enumeration %d of %d", name, c, got, partitioned[c], sets[c])
		}
		res := mustCell(t, x, c)
		if want := float64(partitioned[c]) / float64(sets[c]); res.PartitionProb != want {
			t.Fatalf("%s cuts=%d: partition probability %v, want %v", name, c, res.PartitionProb, want)
		}
		want, _ := closedFormLoss(md, c).Float64()
		if d := math.Abs(res.AvgBandwidthLoss - want); d > 1e-12 {
			t.Fatalf("%s cuts=%d: loss %v, closed form %v (%.1e apart)", name, c, res.AvgBandwidthLoss, want, d)
		}
	}
	if _, err := x.cell(x.n + 1); err == nil {
		t.Fatalf("%s: %d cuts on %d segments accepted", name, x.n+1, x.n)
	}
}

// The exact kernel against enumeration on every small greedy plan, and
// on the differential tests' plans of at most nine switches and four
// rings: parallel arcs for one pair, arcs the long way round, and rings
// that carry nothing.
func TestExactMatchesEnumeration(t *testing.T) {
	smallPlans(t, func(name string, plan *wdm.Plan) { checkExact(t, name, plan, 4) })
	for name, plan := range referencePlans(t) {
		if plan.M <= 9 && plan.Rings <= 4 {
			checkExact(t, name, plan, 4)
		}
	}
}

// Figure 6 at the golden seed, all sixteen cells, including the 3- and
// 4-ring 4-cut zeros the suite does not enumerate; and the 2-ring,
// 4-cut cell at the benchmark's seed.
func TestExactFigure6Counts(t *testing.T) {
	for r := 1; r <= 4; r++ {
		x := mustExact(t, sweepPlan(t, 7, r))
		for c := 1; c <= 4; c++ {
			want := figure6Partitions[r-1][c-1]
			if got := x.partitions(c); got != want {
				t.Errorf("seed 7 rings=%d cuts=%d: %d partitioning sets, want %d", r, c, got, want)
			}
			all := new(big.Int).Binomial(int64(33*r), int64(c)).Int64()
			if got := mustCell(t, x, c).PartitionProb; got != float64(want)/float64(all) {
				t.Errorf("seed 7 rings=%d cuts=%d: probability %v, want %d/%d", r, c, got, want, all)
			}
		}
	}
	x := mustExact(t, sweepPlan(t, 2014, 2))
	if got := x.partitions(4); got != 999 {
		t.Errorf("seed 2014 rings=2 cuts=4: %d partitioning sets, want 999", got)
	}
}

// rotated returns plan with every arc turned k switches clockwise.
func rotated(plan *wdm.Plan, k int) *wdm.Plan {
	out := *plan
	out.Assignments = make([]wdm.Assignment, len(plan.Assignments))
	for i, a := range plan.Assignments {
		a.S, a.T = (a.S+k)%plan.M, (a.T+k)%plan.M
		out.Assignments[i] = a
	}
	return &out
}

// Metamorphic relations of the exact kernel, on the small plans and on
// Figure 6's at both seeds: rotating every arc leaves each cell
// unchanged; loss and partition probability never fall as cuts rise;
// loss never rises as rings rise; and one cut on r rings loses exactly
// the one-ring loss over r, since each cut falls on one ring and meets
// that ring's share of the arcs.
func TestExactMetamorphic(t *testing.T) {
	type grid struct {
		name  string
		plans []*wdm.Plan // by ring count
	}
	var grids []grid
	for m := 2; m <= 9; m++ {
		var g grid
		smallPlans(t, func(name string, plan *wdm.Plan) {
			if plan.M == m {
				g.plans = append(g.plans, plan)
			}
		})
		grids = append(grids, grid{fmt.Sprintf("M=%d", m), g.plans})
	}
	for _, seed := range []int64{7, 2014} {
		g := grid{name: fmt.Sprintf("M=33 seed %d", seed)}
		for r := 1; r <= 4; r++ {
			g.plans = append(g.plans, sweepPlan(t, seed, r))
		}
		grids = append(grids, g)
	}
	for _, g := range grids {
		var oneCut float64
		prevLoss := make([]float64, 5) // by cuts, on the previous ring count
		for r, plan := range g.plans {
			x := mustExact(t, plan)
			var prev Result
			for c := 1; c <= min(4, x.n); c++ {
				name := fmt.Sprintf("%s rings=%d cuts=%d", g.name, r+1, c)
				res := mustCell(t, x, c)
				for _, k := range []int{1, plan.M / 2, plan.M - 1} {
					turned := mustExact(t, rotated(plan, k))
					if got := mustCell(t, turned, c); got != res {
						t.Errorf("%s: rotated by %d %+v, unrotated %+v", name, k, got, res)
					}
					if got, want := turned.partitions(c), x.partitions(c); got != want {
						t.Errorf("%s: rotated by %d counts %d, unrotated %d", name, k, got, want)
					}
				}
				if c > 1 && (res.AvgBandwidthLoss < prev.AvgBandwidthLoss || res.PartitionProb < prev.PartitionProb) {
					t.Errorf("%s: %+v after %+v at one cut fewer", name, res, prev)
				}
				if r > 0 && res.AvgBandwidthLoss > prevLoss[c]+1e-15 {
					t.Errorf("%s: loss %v above %v on one ring fewer", name, res.AvgBandwidthLoss, prevLoss[c])
				}
				if c == 1 {
					if r == 0 {
						oneCut = res.AvgBandwidthLoss
					}
					if want := oneCut / float64(r+1); math.Abs(res.AvgBandwidthLoss-want) > 1e-15 {
						t.Errorf("%s: one-cut loss %v, want the one-ring %v over %d", name, res.AvgBandwidthLoss, oneCut, r+1)
					}
				}
				prev, prevLoss[c] = res, res.AvgBandwidthLoss
			}
		}
	}
}

// kappa is what the count prunes by: on every small plan, kappa[r] is
// the fewest of ring r's own cuts that split its arcs, and no set of
// fewer cuts than the rings' kappas add up to partitions the mesh.
func TestExactKappaBoundsThePartitions(t *testing.T) {
	smallPlans(t, func(name string, plan *wdm.Plan) {
		x := mustExact(t, plan)
		md, err := newModel(plan)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < x.rings; r++ {
			// kappa is the fewest cuts on ring r alone that leave its arcs split.
			fewest := 3
			forEachCutSet(1, x.m, 2, func(cutMask []uint64) {
				var p labels
				if k := bits.OnesCount64(cutMask[0]); k < fewest && x.components(r, cutMask[0], &p) != 0 {
					fewest = k
				}
			})
			if fewest != x.kappa[r] {
				t.Errorf("%s ring %d: kappa %d, fewest splitting cuts %d", name, r, x.kappa[r], fewest)
			}
		}
		_, partitioned, _ := partitionsByCuts(md, 4)
		for c := 1; c < min(5, x.rest[0]); c++ {
			if partitioned[c] != 0 {
				t.Errorf("%s: %d sets of %d cuts partition, below the kappa sum %d", name, partitioned[c], c, x.rest[0])
			}
		}
	})
}
