package fault

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

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

// oneCell is FiberCuts without a deadline, failing the test on an error.
func oneCell(t testing.TB, plan *wdm.Plan, cuts int) Result {
	t.Helper()
	res, err := FiberCuts(context.Background(), plan, cuts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleCutSingleRing(t *testing.T) {
	// Figure 6: one ring, one fiber cut loses 136 of the 528 arcs on
	// average (paper: ~20%) and never partitions: the logical mesh
	// reroutes multi-hop.
	res := oneCell(t, plan33(t, 1), 1)
	if want := 136.0 / 528; math.Abs(res.AvgBandwidthLoss-want) > 1e-15 {
		t.Errorf("bandwidth loss = %v, want 136/528 = %v", res.AvgBandwidthLoss, want)
	}
	if res.PartitionProb != 0 {
		t.Errorf("partition prob = %v, want 0 for a single cut", res.PartitionProb)
	}
}

func TestTwoCutsPartitionSingleRing(t *testing.T) {
	// Two cuts on one ring always separate the switches between the
	// cuts from the rest: partition probability 1 (paper: >90%). The
	// cell takes that shortcut; the count, which does not, must agree
	// that every one of the C(33, c) cut sets partitions.
	p := plan33(t, 1)
	x := mustExact(t, p)
	for c, all := range map[int]int64{2: 528, 3: 5456, 4: 40920} {
		if res := oneCell(t, p, c); res.PartitionProb != 1 {
			t.Errorf("%d cuts: partition prob = %v, want 1", c, res.PartitionProb)
		}
		if got := x.partitions(c); got != all {
			t.Errorf("%d cuts: %d partitioning sets, want all %d", c, got, all)
		}
	}
}

func TestSecondRingPreventsPartition(t *testing.T) {
	// Figure 6's headline: "by adding a single additional physical
	// ring, the probability of partitioning is less than 0.24% even
	// when four physical links fail." On this plan no set of fewer than
	// four cuts splits two rings, and 1 200 of the C(66, 4) sets of four
	// do.
	p := plan33(t, 2)
	for c := 1; c <= 3; c++ {
		if res := oneCell(t, p, c); res.PartitionProb != 0 {
			t.Errorf("%d cuts: partition prob = %v, want 0", c, res.PartitionProb)
		}
	}
	if res, want := oneCell(t, p, 4), 1200.0/720720; res.PartitionProb != want || want >= 0.0024 {
		t.Errorf("4 cuts: partition prob = %v, want 1200/720720 = %v, below 0.24%%", res.PartitionProb, want)
	}
}

func TestMoreRingsLessLoss(t *testing.T) {
	// Figure 6 top: a cut falls on one ring and meets that ring's share
	// of the arcs, so one cut on r rings loses 136/528 over r (paper: 20%
	// at 1 ring, 6% at 4 rings), and at every cut count more rings lose
	// less.
	prev := make([]float64, 5)
	for rings := 1; rings <= 4; rings++ {
		p := plan33(t, rings)
		if got, want := oneCell(t, p, 1).AvgBandwidthLoss, 136.0/528/float64(rings); math.Abs(got-want) > 1e-15 {
			t.Errorf("%d rings, 1 cut: loss %v, want 136/528/%d = %v", rings, got, rings, want)
		}
		for c := 1; c <= 4; c++ {
			loss := oneCell(t, p, c).AvgBandwidthLoss
			if rings > 1 && loss >= prev[c] {
				t.Errorf("%d rings, %d cuts: loss %v, not below %v on one ring fewer", rings, c, loss, prev[c])
			}
			prev[c] = loss
		}
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

// TestSimulateErrors runs the input checks on outside data through the
// one-cell call: a cut count outside 1…rM, a degenerate plan, and every
// malformedPlans row, each with an error that names the fault.
func TestSimulateErrors(t *testing.T) {
	p := plan33(t, 1)
	ctx := context.Background()
	for _, cuts := range []int{-1, 0, 34} {
		if _, err := FiberCuts(ctx, p, cuts); err == nil {
			t.Errorf("%d cuts on 33 segments accepted", cuts)
		}
	}
	tiny := &wdm.Plan{M: 1}
	if _, err := FiberCuts(ctx, tiny, 1); err == nil {
		t.Error("degenerate plan accepted")
	}
	for _, bad := range malformedPlans {
		_, err := FiberCuts(ctx, decodePlan(t, bad.doc), 1)
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
		if _, err := FiberCuts(context.Background(), p, 1); !errors.Is(err, wdm.ErrIdleRings) {
			t.Errorf("%s: FiberCuts err = %v, want wdm.ErrIdleRings", bad.name, err)
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
	if _, err := FiberCuts(context.Background(), split, 2); err != nil {
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

// pathPlan is a 64-switch path, arc v → v+1 on ring v mod 4: a valid
// plan on which every ring's arcs are split already, so the count
// places every cut anywhere and its work grows as C(256, c).
func pathPlan() *wdm.Plan {
	p := &wdm.Plan{M: 64, Channels: 4, Rings: 4}
	for v := 0; v < 63; v++ {
		p.Assignments = append(p.Assignments, wdm.Assignment{S: v, T: v + 1, Channel: v % 4, Ring: v % 4})
	}
	return p
}

// FiberCuts honours its context where the count would run for minutes:
// on pathPlan at four cuts, a 50 ms deadline ends the call with
// context.DeadlineExceeded well within a second, under the race
// detector too.
func TestFiberCutsHonoursDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := FiberCuts(ctx, pathPlan(), 4)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > time.Second {
		t.Errorf("FiberCuts returned %v after %v, want context.DeadlineExceeded within 1 s", err, took)
	}
}
