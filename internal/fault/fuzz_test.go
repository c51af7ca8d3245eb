package fault

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// FuzzFaultModel feeds an arbitrary serialized plan, a cut count and a
// trial count to Simulate and Availability. Neither may panic, hang or
// run out of memory, and each returns an error or a bandwidth loss and a
// partition probability in [0, 1]. A plan of at most eight switches on
// at most three rings also goes to the exact kernel, which must match
// enumeration for one to three cuts. Seeded with greedy plans split over
// one to four rings and with malformedPlans, the hand-found plans that
// once hung, panicked or exhausted memory; `make fuzz` runs it for ten
// seconds.
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
			f.Add(doc, uint8(rings), uint8(20))
		}
	}
	for _, bad := range malformedPlans {
		f.Add([]byte(bad.doc), uint8(1), uint8(10))
	}
	inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
	f.Fuzz(func(t *testing.T, doc []byte, cuts, trials uint8) {
		var plan wdm.Plan
		if json.Unmarshal(doc, &plan) != nil {
			return
		}
		n := int(trials)%64 + 1
		if res, err := Simulate(&plan, int(cuts), n, rand.New(rand.NewSource(1))); err == nil &&
			!(inUnit(res.AvgBandwidthLoss) && inUnit(res.PartitionProb)) {
			t.Fatalf("Simulate(%d cuts): loss %v, partition probability %v", cuts, res.AvgBandwidthLoss, res.PartitionProb)
		}
		if _, err := checkPlan(&plan); err == nil && plan.M <= 8 && plan.Rings <= 3 {
			checkExact(t, "fuzzed plan", &plan, 3)
		}
		params := AvailabilityParams{MTBFHours: 10, MTTRHours: 1, Trials: n}
		if res, err := Availability(&plan, params, rand.New(rand.NewSource(1))); err == nil &&
			!(inUnit(res.MeanBandwidthLoss) && inUnit(res.PartitionProb)) {
			t.Fatalf("Availability: loss %v, partition probability %v", res.MeanBandwidthLoss, res.PartitionProb)
		}
	})
}
