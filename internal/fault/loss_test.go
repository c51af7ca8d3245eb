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

// The expected bandwidth loss has a closed form. Cuts fall on c
// distinct segments, uniform over all r·M segments, so an arc that
// crosses ℓ of them survives with probability C(rM−ℓ, c)/C(rM, c), and
// two arcs whose segments number u together both survive with
// probability C(rM−u, c)/C(rM, c). The tests below hold Simulate and
// evaluate to it.

// arcSegments returns, for each arc of md, its ring and the mask of the
// segments of that ring it crosses.
func arcSegments(md *model) (ring []int, segs []uint64) {
	ring, segs = make([]int, len(md.pairs)), make([]uint64, len(md.pairs))
	for r, rows := range md.crossing {
		for s := 0; rows != nil && s < md.m; s++ {
			for i := range md.pairs {
				if rows[s*md.words+i/64]&(1<<uint(i%64)) != 0 {
					ring[i], segs[i] = r, segs[i]|1<<uint(s)
				}
			}
		}
	}
	return ring, segs
}

// survival is C(n−u, c)/C(n, c): the chance that c distinct uniform
// cuts out of n segments miss a given u of them.
func survival(n, u, c int) *big.Rat {
	if u > n-c {
		return new(big.Rat)
	}
	b := func(n int) *big.Int { return new(big.Int).Binomial(int64(n), int64(c)) }
	return new(big.Rat).SetFrac(b(n-u), b(n))
}

// closedFormLoss is 1 − the mean arc survival: the expected fraction of
// arcs that c cuts destroy.
func closedFormLoss(md *model, c int) *big.Rat {
	_, segs := arcSegments(md)
	mean := new(big.Rat)
	for _, s := range segs {
		mean.Add(mean, survival(md.rings*md.m, bits.OnesCount64(s), c))
	}
	mean.Quo(mean, big.NewRat(int64(len(segs)), 1))
	return mean.Sub(big.NewRat(1, 1), mean)
}

// lossVariance is the exact variance of one trial's loss fraction under
// c cuts, from pairwise survival.
func lossVariance(md *model, c int) float64 {
	ring, segs := arcSegments(md)
	n := md.rings * md.m
	surv := make([]float64, n+1) // by the number of segments u
	for u := range surv {
		surv[u], _ = survival(n, u, c).Float64()
	}
	var sum float64 // Σ over ordered arc pairs of Cov(survives a, survives b)
	for a := range segs {
		la := bits.OnesCount64(segs[a])
		for b := range segs {
			lb := bits.OnesCount64(segs[b])
			union := la + lb
			if ring[a] == ring[b] {
				union = bits.OnesCount64(segs[a] | segs[b])
			}
			sum += surv[union] - surv[la]*surv[lb]
		}
	}
	p := float64(len(segs))
	return max(0, sum/(p*p)) // a zero variance can round below zero
}

// Every set of one to four cuts on greedy plans for M = 2…9 over one to
// four rings: the mean of evaluate's loss over all C(rM, c) sets is the
// closed form, as exact rationals.
func TestLossClosedFormMatchesEnumeration(t *testing.T) {
	for m := 2; m <= 9; m++ {
		base := wdm.Greedy(m, rand.New(rand.NewSource(int64(m))))
		for rings := 1; rings <= min(4, base.Channels); rings++ {
			plan, err := wdm.SplitAcrossRings(base, rings, (base.Channels+rings-1)/rings)
			if err != nil {
				t.Fatal(err)
			}
			md, err := newModel(plan)
			if err != nil {
				t.Fatal(err)
			}
			var lost, sets [5]int64 // by cut count
			forEachCutSet(rings, m, 4, func(cutMask []uint64) {
				c := 0
				for _, mask := range cutMask {
					c += bits.OnesCount64(mask)
				}
				l, _ := md.evaluate(cutMask)
				lost[c] += int64(l)
				sets[c]++
			})
			for c := 1; c <= min(4, rings*m); c++ {
				want := closedFormLoss(md, c)
				got := big.NewRat(lost[c], sets[c]*int64(len(md.pairs)))
				if got.Cmp(want) != 0 {
					t.Errorf("M=%d rings=%d cuts=%d: enumeration %s, closed form %s", m, rings, c, got, want)
				}
			}
		}
	}
}

// One cut on one 33-switch ring destroys the arcs that cross it. Every
// greedy arc takes the short way round, so the arcs cross 33·(1+…+16)
// segments in all and a cut meets 136 of the 528 on average: the
// all-to-all ring's wavelength count (M² − 1)/8 over C(M, 2).
func TestLossClosedFormOneCutOnFigure6Ring(t *testing.T) {
	base := wdm.Greedy(33, rand.New(rand.NewSource(7)))
	md, err := newModel(base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := closedFormLoss(md, 1), big.NewRat(136, 528); got.Cmp(want) != 0 {
		t.Errorf("one-cut loss %s, want %s", got, want)
	}
}

// goldenTrials is how many trials a cell the Monte Carlo Figure 6 ran.
const goldenTrials = 200

// goldenMonteCarlo is Figure 6 as the Monte Carlo estimated it before
// Sweep computed it exactly, at the golden parameters: seed 7's greedy
// plan, then 200 trials a cell from the same rng, rings outer and cuts
// inner. It returns those cells and the models of the four plans.
func goldenMonteCarlo(t *testing.T) (grid [4][4]Result, models [4]*model) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	base := wdm.Greedy(33, rng)
	for r := range grid {
		plan, err := wdm.SplitAcrossRings(base, r+1, (base.Channels+r)/(r+1))
		if err != nil {
			t.Fatal(err)
		}
		if models[r], err = newModel(plan); err != nil {
			t.Fatal(err)
		}
		for c := range grid[r] {
			if grid[r][c], err = Simulate(plan, c+1, goldenTrials, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	return grid, models
}

// The audit of the Monte Carlo Figure 6 once printed (seed 7, 200 trials
// a cell) against the closed form: every loss cell within four standard
// errors of it. Where every segment carries the same number of arcs, one
// cut always loses the same fraction: the variance is zero and the cell
// must match up to the rounding of its 200-term sum.
func TestSweepLossWithinFourStandardErrors(t *testing.T) {
	grid, models := goldenMonteCarlo(t)
	for r, row := range grid {
		for c, res := range row {
			exact, _ := closedFormLoss(models[r], c+1).Float64()
			se := math.Sqrt(lossVariance(models[r], c+1) / goldenTrials)
			name := fmt.Sprintf("rings=%d cuts=%d", r+1, c+1)
			t.Logf("%s: Monte Carlo %.5f, closed form %.5f, standard error %.5f", name, res.AvgBandwidthLoss, exact, se)
			if d := math.Abs(res.AvgBandwidthLoss - exact); d > 4*se+1e-12 {
				t.Errorf("%s: Monte Carlo %.5f, closed form %.5f: %.1f standard errors (%.5f) apart",
					name, res.AvgBandwidthLoss, exact, d/se, se)
			}
		}
	}
}

// Every loss cell Sweep computes at Figure 6's size, at the golden seed
// and the benchmark's, within 1e-12 of the closed form in exact
// rationals: the float64 histogram sum holds at M = 33 and 2–4 cuts, not
// only on the small plans the enumeration covers.
func TestSweepLossMatchesClosedForm(t *testing.T) {
	for _, seed := range []int64{7, 2014} {
		grid, err := Sweep(context.Background(), 33, 4, 4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for r, row := range grid {
			md, err := newModel(sweepPlan(t, seed, r+1))
			if err != nil {
				t.Fatal(err)
			}
			for c, res := range row {
				want, _ := closedFormLoss(md, c+1).Float64()
				if d := math.Abs(res.AvgBandwidthLoss - want); d > 1e-12 {
					t.Errorf("seed %d rings=%d cuts=%d: loss %v, closed form %v (%.1e apart)",
						seed, r+1, c+1, res.AvgBandwidthLoss, want, d)
				}
			}
		}
	}
}

// Steady-state availability, exactly. Each fiber segment is down on its
// own with probability u = MTTR/(MTBF + MTTR), here MTBF one year
// (8 760 h) and MTTR 8 h. At a random instant the number C of segments
// down is Binomial(rM, u), and given C = c the down set is uniform over
// the C(rM, c) sets of c, so P(partition) = Σ_c P(C = c)·cell(c). The
// expected loss is 1 − the mean over arcs of (1 − u)^ℓ, from the
// histogram of arc lengths ℓ, which does not depend on how the arcs are
// dealt to rings: a second ring does not lower it. One ring is split by
// any two cuts, so it is partitioned with probability P(C ≥ 2). Two
// rings are counted up to four cuts, which bounds theirs: the sum up to
// four below, and that plus P(C ≥ 5) above.
func TestSteadyStateAvailability(t *testing.T) {
	const u = 8.0 / 8768
	var losses [2]float64
	for rings := 1; rings <= 2; rings++ {
		x := mustExact(t, sweepPlan(t, 2014, rings))
		survive := 0.0
		for l, arcs := range x.spans {
			survive += float64(arcs) * math.Pow(1-u, float64(l))
		}
		losses[rings-1] = 1 - survive/float64(x.arcs)
		// pmf[c] = P(C = c), by the ratio of successive terms.
		pmf := make([]float64, x.n+1)
		pmf[0] = math.Pow(1-u, float64(x.n))
		for c := 1; c <= x.n; c++ {
			pmf[c] = pmf[c-1] * float64(x.n-c+1) / float64(c) * u / (1 - u)
		}
		counted := x.n
		if rings == 2 {
			counted = 4
		}
		lower, tail := 0.0, 0.0
		for c := 1; c <= x.n; c++ {
			if c <= counted {
				lower += mustCell(t, x, c).PartitionProb * pmf[c]
			} else {
				tail += pmf[c]
			}
		}
		upper := lower + tail
		t.Logf("%d ring(s): loss %.5f %%, partition in [%.4g, %.4g]", rings, 100*losses[rings-1], lower, upper)
		if rings == 1 {
			// 1 − P(C = 0) − P(C = 1), and EXPERIMENTS.md's figure.
			want := 1 - math.Pow(1-u, 33) - 33*u*math.Pow(1-u, 32)
			if math.Abs(lower-want) > 1e-14 || math.Abs(want-4.3135e-4) > 5e-9 {
				t.Errorf("one ring: partition probability %.6g, want P(C ≥ 2) = %.6g ≈ 4.3135e-4", lower, want)
			}
			continue
		}
		if math.Abs(lower-6.543e-10) > 5e-14 || math.Abs(upper-6.049e-9) > 5e-13 {
			t.Errorf("two rings: partition probability in [%.4g, %.4g], want [6.543e-10, 6.049e-9]", lower, upper)
		}
	}
	if losses[0] != losses[1] || math.Abs(losses[0]-0.0077202) > 5e-8 {
		t.Errorf("expected loss %.7f on one ring, %.7f on two; want 0.0077202 on both", losses[0], losses[1])
	}
}
