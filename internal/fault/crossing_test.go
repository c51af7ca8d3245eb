package fault

import (
	"slices"
	"testing"

	"github.com/quartz-dcn/quartz/internal/core"
)

// The static model behind Figure 6 and the fault resolver behind the
// dynamic fiber-cut runs share one arc geometry (wdm.Assignment.Crosses):
// on Figure 6's golden plan over one to four rings, the arcs the model
// marks on each segment of each ring are exactly the switch pairs
// core.Ring.FiberCutImpact reports severed by cutting it.
func TestCrossingMatchesFiberCutImpact(t *testing.T) {
	for rings := 1; rings <= 4; rings++ {
		plan := sweepPlan(t, 7, rings)
		md, err := newModel(plan)
		if err != nil {
			t.Fatal(err)
		}
		ring := &core.Ring{Config: core.RingConfig{Switches: 33}, Plan: plan}
		for fiber := 0; fiber < rings; fiber++ {
			for seg := 0; seg < md.m; seg++ {
				var want [][2]int
				for i, p := range md.pairs {
					if row := md.crossing[fiber]; row != nil && row[seg*md.words+i/64]&(1<<uint(i%64)) != 0 {
						want = append(want, [2]int{int(p[0]), int(p[1])})
					}
				}
				got, err := ring.FiberCutImpact(fiber, seg)
				if err != nil {
					t.Fatal(err)
				}
				less := func(a, b [2]int) int { return slices.Compare(a[:], b[:]) }
				slices.SortFunc(got, less)
				slices.SortFunc(want, less)
				if !slices.Equal(got, want) {
					t.Fatalf("rings=%d fiber %d segment %d: FiberCutImpact %v, model %v", rings, fiber, seg, got, want)
				}
			}
		}
	}
}
