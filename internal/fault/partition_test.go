package fault

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// sweepPlan is the plan Sweep builds for a ring count: the greedy plan
// for 33 switches, the first draw from Sweep's rng, dealt round-robin
// across the rings.
func sweepPlan(t testing.TB, seed int64, rings int) *wdm.Plan {
	t.Helper()
	base := wdm.Greedy(33, rand.New(rand.NewSource(seed)))
	plan, err := wdm.SplitAcrossRings(base, rings, (base.Channels+rings-1)/rings)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// figure6Partitions[r-1][c-1] is how many of the C(33r, c) sets of c
// distinct cut segments partition the golden Figure 6 plan (seed 7) on r
// rings. One ring splits at any two cuts; two rings first split at four.
// The suite enumerates c ≤ figure6Enumerated[r-1]; the 3- and 4-ring
// 4-cut sets (3.8 M and 12.1 M of them, seconds each) were enumerated
// once by raising those limits to 4, and none partitions. The exact
// kernel asserts every cell (TestExactFigure6Counts).
var (
	figure6Partitions = [4][4]int64{
		{0, 528, 5456, 40920}, // C(33, c): every set
		{0, 0, 0, 1263},
		{0, 0, 0, 0},
		{0, 0, 0, 0},
	}
	figure6Enumerated = [4]int{4, 4, 3, 3}
)

// partitionsByCuts enumerates every set of at most k cut segments of
// md's rings and counts, by the number of cuts, the sets that partition
// the mesh and those evaluate decides by two closed segment indices.
func partitionsByCuts(md *model, k int) (sets, partitioned, closed [5]int64) {
	forEachCutSet(md.rings, md.m, k, func(cutMask []uint64) {
		c := 0
		for _, mask := range cutMask {
			c += bits.OnesCount64(mask)
		}
		sets[c]++
		if _, p := md.evaluate(cutMask); p {
			partitioned[c]++
		}
		if x := md.closed(cutMask); x&(x-1) != 0 {
			closed[c]++
		}
	})
	return sets, partitioned, closed
}

// The partition half of Figure 6, exactly: every cut set on the golden
// plan, counted.
func TestFigure6PartitionsByEnumeration(t *testing.T) {
	for r := 1; r <= 4; r++ {
		md, err := newModel(sweepPlan(t, 7, r))
		if err != nil {
			t.Fatal(err)
		}
		sets, partitioned, _ := partitionsByCuts(md, figure6Enumerated[r-1])
		for c := 1; c <= figure6Enumerated[r-1]; c++ {
			if want := new(big.Int).Binomial(int64(33*r), int64(c)).Int64(); sets[c] != want {
				t.Fatalf("rings=%d cuts=%d: %d cut sets, want C(%d, %d) = %d", r, c, sets[c], 33*r, c, want)
			}
			if partitioned[c] != figure6Partitions[r-1][c-1] {
				t.Errorf("rings=%d cuts=%d: %d of %d cut sets partition, want %d",
					r, c, partitioned[c], sets[c], figure6Partitions[r-1][c-1])
			}
		}
	}
}

// At the benchmark's seed the 2-ring plan differs: 999 of the 720 720
// four-cut sets partition it, 528 of them by two closed segment indices.
// The paper's 0.24 % and Figure 6's measured 0.0014 (EXPERIMENTS.md) are
// this 0.139 %.
func TestFigure6TwoRingsFourCutsAtBenchmarkSeed(t *testing.T) {
	md, err := newModel(sweepPlan(t, 2014, 2))
	if err != nil {
		t.Fatal(err)
	}
	sets, partitioned, closed := partitionsByCuts(md, 4)
	if sets[4] != 720720 || partitioned[4] != 999 || closed[4] != 528 {
		t.Errorf("%d four-cut sets, %d partition, %d by closed indices; want 720720, 999, 528",
			sets[4], partitioned[4], closed[4])
	}
}

// The partition cells of the Monte Carlo Figure 6 once printed (seed 7,
// 200 trials a cell) against the enumerated counts: equal where the
// exact value is 0 or 1, and within four binomial standard errors
// elsewhere.
func TestSweepPartitionMatchesEnumeration(t *testing.T) {
	grid, _ := goldenMonteCarlo(t)
	for r, row := range grid {
		for c, res := range row {
			all := new(big.Int).Binomial(int64(33*(r+1)), int64(c+1)).Int64()
			exact := float64(figure6Partitions[r][c]) / float64(all)
			name := fmt.Sprintf("rings=%d cuts=%d", r+1, c+1)
			t.Logf("%s: Monte Carlo %.5f, exact %.5f", name, res.PartitionProb, exact)
			if exact == 0 || exact == 1 {
				if res.PartitionProb != exact {
					t.Errorf("%s: Monte Carlo %g, exact %g", name, res.PartitionProb, exact)
				}
				continue
			}
			se := math.Sqrt(exact * (1 - exact) / goldenTrials)
			if d := math.Abs(res.PartitionProb - exact); d > 4*se {
				t.Errorf("%s: Monte Carlo %.5f, exact %.5f: %.1f standard errors (%.5f) apart",
					name, res.PartitionProb, exact, d/se, se)
			}
		}
	}
}
