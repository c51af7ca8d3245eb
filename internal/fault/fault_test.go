package fault

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

func plan33(t testing.TB, rings int) *wdm.Plan {
	t.Helper()
	base := wdm.Greedy(33, rand.New(rand.NewSource(1)))
	if rings == 1 {
		return base
	}
	per := (base.Channels + rings - 1) / rings
	p, err := wdm.SplitAcrossRings(base, rings, per)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleCutSingleRing(t *testing.T) {
	// Figure 6: one ring, one fiber cut -> ~20% bandwidth loss, no
	// partitions (the logical mesh reroutes multi-hop).
	p := plan33(t, 1)
	res, err := Simulate(p, 1, 2000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionProb != 0 {
		t.Errorf("partition prob = %v, want 0 for a single cut", res.PartitionProb)
	}
	// Average loss = average link load / number of pairs ~ 137/528 ~ 26%.
	if res.AvgBandwidthLoss < 0.15 || res.AvgBandwidthLoss > 0.35 {
		t.Errorf("bandwidth loss = %v, want ~0.2-0.3 (paper: 20%%)", res.AvgBandwidthLoss)
	}
}

func TestTwoCutsPartitionSingleRing(t *testing.T) {
	// Two cuts on one ring always separate the switches between the
	// cuts from the rest: partition probability ~1 (paper: >90%).
	p := plan33(t, 1)
	res, err := Simulate(p, 2, 2000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionProb < 0.9 {
		t.Errorf("partition prob = %v, want > 0.9", res.PartitionProb)
	}
}

func TestSecondRingPreventsPartition(t *testing.T) {
	// Figure 6's headline: "by adding a single additional physical
	// ring, the probability of partitioning is less than 0.24% even
	// when four physical links fail."
	p := plan33(t, 2)
	res, err := Simulate(p, 4, 20000, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionProb > 0.01 {
		t.Errorf("partition prob with 2 rings / 4 cuts = %v, want < 1%%", res.PartitionProb)
	}
}

func TestMoreRingsLessLoss(t *testing.T) {
	// Figure 6 top: loss at one cut drops roughly as 1/rings (paper:
	// 20% at 1 ring, 6% at 4 rings).
	rng := rand.New(rand.NewSource(5))
	var losses []float64
	for rings := 1; rings <= 4; rings++ {
		p := plan33(t, rings)
		res, err := Simulate(p, 1, 2000, rng)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, res.AvgBandwidthLoss)
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] >= losses[i-1] {
			t.Errorf("loss did not decrease with more rings: %v", losses)
		}
	}
	if losses[3] > losses[0]/2 {
		t.Errorf("4-ring loss %v not well below 1-ring loss %v", losses[3], losses[0])
	}
}

// malformedPlans are serialized plans that pass Plan.UnmarshalJSON (it
// checks only the header fields) but used to hang the arc walk (an
// endpoint outside the ring never equals an index mod M), index past
// the per-ring masks, divide by zero arcs, or — with 2^40 fiber rings
// for one channel — allocate per ring until the runtime died out of
// memory, which no recover can catch.
var malformedPlans = []struct{ name, doc, want string }{
	{"rings > channels", `{"ringSize":4,"channels":1,"physicalRings":1099511627776,"assignments":[{"S":0,"T":1}]}`, "1099511627776 fiber rings for 1 channels"},
	{"rings > arcs", `{"ringSize":4,"channels":1099511627776,"physicalRings":1099511627776,"assignments":[{"S":0,"T":1}]}`, "on 1 arcs"},
	{"no arcs", `{"ringSize":4,"channels":1,"physicalRings":1,"assignments":[]}`, "no assignments"},
	{"T >= M", `{"ringSize":4,"channels":1,"physicalRings":1,"assignments":[{"S":0,"T":1},{"S":1,"T":4}]}`, "assignment 1 (pair 1-4"},
	{"Ring >= Rings", `{"ringSize":4,"channels":1,"physicalRings":1,"assignments":[{"S":0,"T":1},{"S":0,"T":2},{"S":0,"T":3},{"S":1,"T":2,"Ring":3}]}`, "assignment 3 (pair 1-2"},
	{"negative S", `{"ringSize":4,"channels":1,"physicalRings":1,"assignments":[{"S":-1,"T":2,"Dir":1}]}`, "assignment 0 (pair -1-2"},
	{"S == T", `{"ringSize":4,"channels":1,"physicalRings":1,"assignments":[{"S":2,"T":2}]}`, "assignment 0 (pair 2-2"},
	{"unknown Dir", `{"ringSize":4,"channels":1,"physicalRings":1,"assignments":[{"S":0,"T":2,"Dir":7}]}`, "direction 7"},
}

func decodePlan(t *testing.T, doc string) *wdm.Plan {
	t.Helper()
	var p wdm.Plan
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestSimulateErrors(t *testing.T) {
	p := plan33(t, 1)
	rng := rand.New(rand.NewSource(6))
	if _, err := Simulate(p, -1, 10, rng); err == nil {
		t.Error("negative cuts accepted")
	}
	if _, err := Simulate(p, 1, 0, rng); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Simulate(p, 1, 10, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := Simulate(p, 100, 10, rng); err == nil {
		t.Error("more cuts than fibers accepted")
	}
	tiny := &wdm.Plan{M: 1}
	if _, err := Simulate(tiny, 1, 10, rng); err == nil {
		t.Error("degenerate plan accepted")
	}
	for _, bad := range malformedPlans {
		_, err := Simulate(decodePlan(t, bad.doc), 1, 10, rng)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want it to name %q", bad.name, err, bad.want)
		}
	}
}

func TestIdleRingsRejected(t *testing.T) {
	// The ring-count rows of malformedPlans fail as wdm.ErrIdleRings, and
	// so does asking SplitAcrossRings for them; a ring per channel is
	// still a plan.
	for _, bad := range malformedPlans[:2] {
		p := decodePlan(t, bad.doc)
		if _, err := Simulate(p, 1, 10, rand.New(rand.NewSource(1))); !errors.Is(err, wdm.ErrIdleRings) {
			t.Errorf("%s: Simulate err = %v, want wdm.ErrIdleRings", bad.name, err)
		}
		params := AvailabilityParams{MTBFHours: 1, MTTRHours: 1, Trials: 10}
		if _, err := Availability(p, params, rand.New(rand.NewSource(1))); !errors.Is(err, wdm.ErrIdleRings) {
			t.Errorf("%s: Availability err = %v, want wdm.ErrIdleRings", bad.name, err)
		}
	}
	base := wdm.Greedy(3, nil) // one channel
	if _, err := wdm.SplitAcrossRings(base, 2, 1); !errors.Is(err, wdm.ErrIdleRings) {
		t.Errorf("split of %d channel(s) over 2 rings: err = %v, want wdm.ErrIdleRings", base.Channels, err)
	}
	p := plan33(t, 1)
	split, err := wdm.SplitAcrossRings(p, p.Channels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(split, 2, 10, rand.New(rand.NewSource(1))); err != nil {
		t.Errorf("a ring per channel: %v", err)
	}
}

func TestSweepShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid, err := Sweep(context.Background(), 33, 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 4 || len(grid[0]) != 4 {
		t.Fatalf("grid shape %dx%d, want 4x4", len(grid), len(grid[0]))
	}
	// More cuts -> more loss, for every ring count.
	for r := 0; r < 4; r++ {
		for c := 1; c < 4; c++ {
			if grid[r][c].AvgBandwidthLoss <= grid[r][c-1].AvgBandwidthLoss {
				t.Errorf("rings=%d: loss not increasing with cuts: %v then %v",
					r+1, grid[r][c-1].AvgBandwidthLoss, grid[r][c].AvgBandwidthLoss)
			}
		}
	}
	// Partition probability at 2+ cuts falls dramatically from 1 ring
	// to 2 rings.
	if grid[0][1].PartitionProb < 0.9 {
		t.Errorf("1 ring 2 cuts partition = %v, want ~1", grid[0][1].PartitionProb)
	}
	if grid[1][1].PartitionProb > 0.05 {
		t.Errorf("2 rings 2 cuts partition = %v, want ~0", grid[1][1].PartitionProb)
	}
	if _, err := Sweep(context.Background(), 33, 0, 4, rng); err == nil {
		t.Error("invalid sweep accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := plan33(t, 2)
	a, err := Simulate(p, 3, 500, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p, 3, 500, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestAvailabilitySteadyState(t *testing.T) {
	// Realistic ops numbers: a fiber segment fails about once a year
	// (8760 h) and takes 8 h to repair -> ~0.09% unavailability.
	params := AvailabilityParams{MTBFHours: 8760, MTTRHours: 8, Trials: 50_000}
	rng := rand.New(rand.NewSource(10))

	single := plan33(t, 1)
	r1, err := Availability(single, params, rng)
	if err != nil {
		t.Fatal(err)
	}
	dual := plan33(t, 2)
	r2, err := Availability(dual, params, rng)
	if err != nil {
		t.Fatal(err)
	}
	wantUnavail := 8.0 / 8768.0
	if r1.SegmentUnavailability != wantUnavail {
		t.Errorf("segment unavailability = %v, want %v", r1.SegmentUnavailability, wantUnavail)
	}
	// Expected concurrent cuts: segments x unavailability.
	if want := 33 * wantUnavail; r1.MeanConcurrentCuts < want*0.8 || r1.MeanConcurrentCuts > want*1.2 {
		t.Errorf("1-ring mean cuts = %v, want ~%v", r1.MeanConcurrentCuts, want)
	}
	// Two rings double the fiber count but halve per-fiber impact: the
	// bandwidth loss stays comparable, while the partition probability
	// collapses (a single ring partitions whenever >= 2 distinct
	// segments are down).
	if r2.PartitionProb >= r1.PartitionProb && r1.PartitionProb > 0 {
		t.Errorf("2-ring partition %v not below 1-ring %v", r2.PartitionProb, r1.PartitionProb)
	}
	if r2.PartitionProb > 1e-4 {
		t.Errorf("2-ring steady-state partition = %v, want ~0", r2.PartitionProb)
	}
	// Loss scales with segment unavailability (sub-0.1%).
	if r1.MeanBandwidthLoss > 0.01 {
		t.Errorf("1-ring mean loss = %v, want well under 1%%", r1.MeanBandwidthLoss)
	}
}

func TestAvailabilityErrors(t *testing.T) {
	p := plan33(t, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := Availability(p, AvailabilityParams{MTBFHours: 0, MTTRHours: 1, Trials: 10}, rng); err == nil {
		t.Error("zero MTBF accepted")
	}
	if _, err := Availability(p, AvailabilityParams{MTBFHours: 1, MTTRHours: 1, Trials: 0}, rng); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Availability(p, AvailabilityParams{MTBFHours: 1, MTTRHours: 1, Trials: 10}, nil); err == nil {
		t.Error("nil rng accepted")
	}
	for _, bad := range malformedPlans {
		_, err := Availability(decodePlan(t, bad.doc), AvailabilityParams{MTBFHours: 1, MTTRHours: 1, Trials: 10}, rng)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want it to name %q", bad.name, err, bad.want)
		}
	}
}

func TestSimulateAllocsIndependentOfTrials(t *testing.T) {
	p := plan33(t, 2)
	rng := rand.New(rand.NewSource(11))
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Simulate(p, 3, trials, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(10_000); few != many {
		t.Errorf("Simulate allocates %v times at 10 trials, %v at 10000: the trial loop allocates", few, many)
	}
}

// BenchmarkSweep is the Figure 6 sweep at the repository benchmark's
// parameters: a 33-switch ring, 1-4 rings x 1-4 cuts, computed exactly.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), 33, 4, 4, rand.New(rand.NewSource(2014))); err != nil {
			b.Fatal(err)
		}
	}
}
