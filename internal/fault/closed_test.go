package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// forEachCutSet calls f with every set of at most k cut segments over
// rings × m segments, as one mask per ring.
func forEachCutSet(rings, m, k int, f func(cutMask []uint64)) {
	cutMask := make([]uint64, rings)
	var pick func(from, left int)
	pick = func(from, left int) {
		f(cutMask)
		if left == 0 {
			return
		}
		for s := from; s < rings*m; s++ {
			r, bit := s/m, uint64(1)<<uint(s%m)
			cutMask[r] |= bit
			pick(s+1, left-1)
			cutMask[r] &^= bit
		}
	}
	pick(0, k)
}

// TestClosedBoundariesAgreeWithUnionFind checks the closed-boundary
// rule against union–find on small plans: greedy plans for M = 2…9 on
// one to four fiber rings, under every set of at most four cut segments
// and under dense random masks, each segment down on its own as in a
// steady state of independent failures.
// Whenever two segment indices are closed, union–find over the
// survivors must find the mesh disconnected too, and evaluate's loss is
// the number of arcs kill marks dead.
func TestClosedBoundariesAgreeWithUnionFind(t *testing.T) {
	shortcuts, fallbacks := 0, 0
	check := func(name string, md *model, cutMask []uint64) {
		lost, partitioned := md.evaluate(cutMask)
		// evaluate left md.dead as kill marked it: union–find reads it.
		if want := md.disconnected(); partitioned != want {
			t.Fatalf("%s cuts %b: evaluate says partitioned=%v, union–find %v", name, cutMask, partitioned, want)
		}
		if want := md.kill(cutMask); lost != want {
			t.Fatalf("%s cuts %b: evaluate lost %d arcs, kill %d", name, cutMask, lost, want)
		}
		if c := md.closed(cutMask); c&(c-1) != 0 {
			shortcuts++
		} else if partitioned {
			fallbacks++
		}
	}
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
			name := fmt.Sprintf("M=%d rings=%d", m, rings)
			forEachCutSet(rings, m, 4, func(cutMask []uint64) { check(name, md, cutMask) })
			rng := rand.New(rand.NewSource(int64(10*m + rings)))
			cutMask := make([]uint64, rings)
			for _, down := range []float64{0.2, 0.5, 0.8} {
				for trial := 0; trial < 200; trial++ {
					for r := range cutMask {
						cutMask[r] = 0
						for seg := 0; seg < m; seg++ {
							if rng.Float64() < down {
								cutMask[r] |= 1 << uint(seg)
							}
						}
					}
					check(name, md, cutMask)
				}
			}
		}
	}
	// Both ways to a partition must have been exercised.
	if shortcuts == 0 || fallbacks == 0 {
		t.Errorf("%d partitions by closed boundaries and %d by union–find alone: want both", shortcuts, fallbacks)
	}
}

// TestFigure6SingleRingTrialsTakeTheShortcut pins where the rule pays:
// on Figure 6's one-ring plan (33 switches, the plan fault.Sweep builds
// from the benchmark's seed), every set of two to four cut segments —
// so every Monte Carlo trial of the one-ring, ≥ 2-cut cells — has two
// closed segment indices and is partitioned without union–find.
func TestFigure6SingleRingTrialsTakeTheShortcut(t *testing.T) {
	base := wdm.Greedy(33, rand.New(rand.NewSource(2014)))
	plan, err := wdm.SplitAcrossRings(base, 1, base.Channels)
	if err != nil {
		t.Fatal(err)
	}
	md, err := newModel(plan)
	if err != nil {
		t.Fatal(err)
	}
	trials := 0
	forEachCutSet(1, 33, 4, func(cutMask []uint64) {
		if bits.OnesCount64(cutMask[0]) < 2 {
			return
		}
		trials++
		if c := md.closed(cutMask); c&(c-1) == 0 {
			t.Fatalf("cuts %b: closed %b, want at least two indices", cutMask[0], c)
		}
		if _, partitioned := md.evaluate(cutMask); !partitioned {
			t.Fatalf("cuts %b: not partitioned", cutMask[0])
		}
	})
	if want := 528 + 5456 + 40920; trials != want { // C(33, 2…4)
		t.Errorf("%d cut sets, want %d", trials, want)
	}
}
