package fault

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// FuzzFaultModel feeds an arbitrary serialized plan and a cut count to
// FiberCuts under a 20 ms deadline. It may not panic, hang or run out of
// memory, and returns an error — the deadline's is one — or a bandwidth
// loss and a partition probability in [0, 1]. A plan of at most eight
// switches on at most three rings also goes to checkExact, which holds
// the kernel to enumeration for one to three cuts. Seeded with greedy
// plans split over one to four rings, with malformedPlans, the
// hand-found plans that once hung, panicked or exhausted memory, and
// with pathPlan at four cuts, whose count outlives any deadline; `make
// fuzz` runs it for ten seconds.
func FuzzFaultModel(f *testing.F) {
	for _, m := range []int{2, 5, 9, 33} {
		base := wdm.Greedy(m, rand.New(rand.NewSource(int64(m))))
		for rings := 1; rings <= min(4, base.Channels); rings++ {
			p, err := wdm.SplitAcrossRings(base, rings, (base.Channels+rings-1)/rings)
			if err != nil {
				f.Fatal(err)
			}
			doc, err := json.Marshal(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(doc, uint8(rings))
		}
	}
	for _, bad := range malformedPlans {
		f.Add([]byte(bad.doc), uint8(1))
	}
	doc, err := json.Marshal(pathPlan())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc, uint8(4))
	inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
	f.Fuzz(func(t *testing.T, doc []byte, cuts uint8) {
		var plan wdm.Plan
		if json.Unmarshal(doc, &plan) != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if res, err := FiberCuts(ctx, &plan, int(cuts)); err == nil &&
			!(inUnit(res.AvgBandwidthLoss) && inUnit(res.PartitionProb)) {
			t.Fatalf("FiberCuts(%d cuts): loss %v, partition probability %v", cuts, res.AvgBandwidthLoss, res.PartitionProb)
		}
		if _, err := checkPlan(&plan); err == nil && plan.M <= 8 && plan.Rings <= 3 {
			checkExact(t, "fuzzed plan", &plan, 3)
		}
	})
}
