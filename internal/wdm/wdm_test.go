package wdm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOptimalChannelsFormula(t *testing.T) {
	cases := []struct{ m, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1},
		{4, 3}, // M=4 provably needs 3, not the load bound 2
		{5, 3}, {6, 5}, {7, 6},
		{8, 9}, // M=0 mod 4: M^2/8+1
		{9, 10}, {10, 13},
		// Odd M=2k+1: k(k+1)/2. M=35 (k=17): 153 <= 160, hence the
		// paper's maximum ring size of 35 (§3.1.1).
		{35, 153},
		{37, 171}, // first odd size over the 160-channel budget
	}
	for _, c := range cases {
		if got := OptimalChannels(c.m); got != c.want {
			t.Errorf("OptimalChannels(%d) = %d, want %d", c.m, got, c.want)
		}
		if lb := LowerBound(c.m); lb > c.want {
			t.Errorf("LowerBound(%d) = %d exceeds optimum %d", c.m, lb, c.want)
		}
	}
}

func TestMaxRingSize(t *testing.T) {
	// The paper: "the maximum ring size is 35 since current fiber cables
	// can only support 160 channels" (§3.1.1).
	if got := MaxRingSize(MaxChannelsPerFiber); got != 35 {
		t.Errorf("MaxRingSize(160) = %d, want 35", got)
	}
	if got := MaxRingSize(CommodityMuxChannels); got >= 35 {
		t.Errorf("MaxRingSize(80) = %d, want < 35", got)
	}
}

func TestGreedyValidAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for m := 2; m <= 41; m++ {
		p := Greedy(m, rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if p.Channels < LowerBound(m) {
			t.Errorf("m=%d: greedy used %d channels, below lower bound %d (impossible)",
				m, p.Channels, LowerBound(m))
		}
		// The paper's Figure 5 shows greedy within a small factor of
		// optimal; allow 30% slack.
		if opt := OptimalChannels(m); p.Channels > opt+opt/3+1 {
			t.Errorf("m=%d: greedy used %d channels, optimum %d: worse than Figure 5 suggests",
				m, p.Channels, opt)
		}
	}
}

func TestGreedyDeterministicWithNilRand(t *testing.T) {
	a, b := Greedy(9, nil), Greedy(9, nil)
	if a.Channels != b.Channels || len(a.Assignments) != len(b.Assignments) {
		t.Fatal("nil-rand greedy not deterministic")
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

func TestGreedyTrivialRings(t *testing.T) {
	for _, m := range []int{0, 1} {
		p := Greedy(m, nil)
		if p.Channels != 0 || len(p.Assignments) != 0 {
			t.Errorf("m=%d: got %d channels, %d assignments", m, p.Channels, len(p.Assignments))
		}
		if err := p.Validate(); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
	p := Greedy(2, nil)
	if p.Channels != 1 || len(p.Assignments) != 1 {
		t.Errorf("m=2: got %d channels %d assignments, want 1/1", p.Channels, len(p.Assignments))
	}
}

// TestGreedyWitnessesClosedForm certifies OptimalChannels from above at
// every ring size Figure 5 plots: some Greedy seed in 1..64 reaches it
// exactly, with a valid plan whose busiest link carries every channel.
// Where LowerBound meets the closed form (odd M and M ≡ 2 mod 4) that
// plan is provably minimal. M ≡ 0 (mod 4) rests on
// TestExactBranchBoundSmall at 4 and 8, and above 8 on the classical
// all-to-all ring result.
func TestGreedyWitnessesClosedForm(t *testing.T) {
	for m := 2; m <= 41; m++ {
		opt := OptimalChannels(m)
		if lb := LowerBound(m); m%4 != 0 && lb != opt {
			t.Errorf("M=%d: LowerBound %d, closed form %d: the load bound should be tight", m, lb, opt)
		}
		var witness *Plan
		for seed := int64(1); seed <= 64 && witness == nil; seed++ {
			p := Greedy(m, rand.New(rand.NewSource(seed)))
			if p.Channels < opt {
				t.Fatalf("M=%d seed %d: greedy %d channels, below the closed form %d", m, seed, p.Channels, opt)
			}
			if p.Channels == opt {
				witness = p
			}
		}
		if witness == nil {
			t.Errorf("M=%d: no Greedy seed in 1..64 reaches the closed form %d", m, opt)
			continue
		}
		if err := witness.Validate(); err != nil {
			t.Errorf("M=%d: witness invalid: %v", m, err)
		} else if load := witness.MaxLinkLoad(); load != opt {
			t.Errorf("M=%d: witness MaxLinkLoad %d, closed form %d", m, load, opt)
		}
	}
}

func TestExactBranchBoundSmall(t *testing.T) {
	// m=10 covers the M≡2 (mod 4) case of the closed form (13 channels)
	// and m=8 the M≡0 (mod 4) case (9 channels).
	for m := 2; m <= 10; m++ {
		p, err := ExactBranchBound(m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("m=%d: invalid plan: %v", m, err)
		}
		if p.Channels != OptimalChannels(m) {
			t.Errorf("m=%d: exact = %d, closed form %d (must agree)",
				m, p.Channels, OptimalChannels(m))
		}
	}
	if _, err := ExactBranchBound(20); err == nil {
		t.Error("m=20 accepted by exact solver")
	}
}

func TestPaper33SwitchExample(t *testing.T) {
	// §3.5: "a Quartz network with 33 switches requires 137 channels" —
	// that is the paper's greedy/ILP result; the true optimum is
	// 16*17/2 = 136 and greedy lands within a few channels.
	rng := rand.New(rand.NewSource(14))
	if OptimalChannels(33) != 136 {
		t.Errorf("OptimalChannels(33) = %d, want 136", OptimalChannels(33))
	}
	g := Greedy(33, rng)
	if g.Channels < 136 || g.Channels > 145 {
		t.Errorf("greedy(33) = %d channels, want within [136,145] (paper: 137)", g.Channels)
	}
	// Either way, more than one 80-channel mux is needed, but two
	// suffice — the paper's two-ring configuration.
	if g.Channels <= CommodityMuxChannels {
		t.Errorf("greedy(33) = %d fits one 80-channel mux; paper needs two", g.Channels)
	}
	if g.Channels > 2*CommodityMuxChannels {
		t.Errorf("greedy(33) = %d exceeds two muxes", g.Channels)
	}
}

func TestSplitAcrossRings(t *testing.T) {
	p := Greedy(33, rand.New(rand.NewSource(3)))
	if p.Channels != OptimalChannels(33) {
		t.Fatalf("greedy(33, seed 3) = %d channels, want the optimum %d", p.Channels, OptimalChannels(33))
	}
	split, err := SplitAcrossRings(p, 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if split.Rings != 2 {
		t.Errorf("Rings = %d, want 2", split.Rings)
	}
	// Per-ring channel indices must stay within the fiber budget:
	// channels dealt round-robin means ring r sees channels r, r+2, ...
	counts := map[int]int{}
	for _, a := range split.Assignments {
		counts[a.Ring]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("unbalanced split: %v", counts)
	}
	// Original plan untouched.
	for _, a := range p.Assignments {
		if a.Ring != 0 {
			t.Fatal("SplitAcrossRings modified its input")
		}
	}
}

func TestSplitAcrossRingsErrors(t *testing.T) {
	p := Greedy(12, nil)
	if _, err := SplitAcrossRings(p, 0, 80); err == nil {
		t.Error("0 rings accepted")
	}
	if _, err := SplitAcrossRings(p, 1, 5); err == nil {
		t.Error("overfull fiber accepted")
	}
	if _, err := SplitAcrossRings(p, p.Channels+1, 80); !errors.Is(err, ErrIdleRings) {
		t.Errorf("%d rings for %d channels: err = %v, want ErrIdleRings", p.Channels+1, p.Channels, err)
	}
	if _, err := SplitAcrossRings(Greedy(1, nil), 1, 80); err != nil {
		t.Errorf("one ring for a plan with no channels: %v", err)
	}
}

func TestValidateCatchesConflicts(t *testing.T) {
	// Hand-build a broken plan: two pairs share channel 0 on link 0.
	p := &Plan{M: 4, Channels: 1, Rings: 1, Assignments: []Assignment{
		{S: 0, T: 1, Dir: Clockwise, Channel: 0},
		{S: 0, T: 2, Dir: Clockwise, Channel: 0},
	}}
	if err := p.Validate(); err == nil {
		t.Error("conflicting plan validated")
	}
	// Missing pairs.
	p2 := &Plan{M: 3, Channels: 1, Rings: 1, Assignments: []Assignment{
		{S: 0, T: 1, Dir: Clockwise, Channel: 0},
	}}
	if err := p2.Validate(); err == nil {
		t.Error("incomplete plan validated")
	}
	// Duplicate pair.
	p3 := &Plan{M: 3, Channels: 2, Rings: 1, Assignments: []Assignment{
		{S: 0, T: 1, Dir: Clockwise, Channel: 0},
		{S: 0, T: 1, Dir: CounterClockwise, Channel: 1},
		{S: 1, T: 2, Dir: Clockwise, Channel: 1},
	}}
	if err := p3.Validate(); err == nil {
		t.Error("duplicate pair validated")
	}
	// Channel out of range.
	p4 := &Plan{M: 2, Channels: 1, Rings: 1, Assignments: []Assignment{
		{S: 0, T: 1, Dir: Clockwise, Channel: 3},
	}}
	if err := p4.Validate(); err == nil {
		t.Error("out-of-range channel validated")
	}
	// A direction that is neither cw nor ccw names no arc. It is
	// refused, not read as an arc that crosses no link: such pairs all
	// fit on one channel.
	p5 := &Plan{M: 4, Channels: 1, Rings: 1}
	for _, pr := range Pairs(4) {
		p5.Assignments = append(p5.Assignments, Assignment{S: pr[0], T: pr[1], Dir: 7})
	}
	if err := p5.Validate(); err == nil {
		t.Error("unknown direction validated")
	}
}

func TestMaxLinkLoad(t *testing.T) {
	p := Greedy(9, rand.New(rand.NewSource(2)))
	if p.Channels != OptimalChannels(9) {
		t.Fatalf("greedy(9, seed 2) = %d channels, want the optimum %d", p.Channels, OptimalChannels(9))
	}
	// With an optimal plan, max link load equals the channel count.
	if got := p.MaxLinkLoad(); got != p.Channels {
		t.Errorf("MaxLinkLoad = %d, channels = %d; optimal plan should be load-tight", got, p.Channels)
	}
}

func TestArcHelpers(t *testing.T) {
	// Clockwise 1->3 on M=5 covers links 1,2.
	var links []int
	arcLinks(5, 1, 3, Clockwise, func(l int) { links = append(links, l) })
	if len(links) != 2 || links[0] != 1 || links[1] != 2 {
		t.Errorf("cw arc links = %v, want [1 2]", links)
	}
	// CounterClockwise 1->3 on M=5 covers links 0,4,3.
	links = nil
	arcLinks(5, 1, 3, CounterClockwise, func(l int) { links = append(links, l) })
	if len(links) != 3 || links[0] != 0 || links[1] != 4 || links[2] != 3 {
		t.Errorf("ccw arc links = %v, want [0 4 3]", links)
	}
	if arcLen(5, 1, 3, Clockwise) != 2 || arcLen(5, 1, 3, CounterClockwise) != 3 {
		t.Error("arcLen wrong")
	}
	if Clockwise.String() != "cw" || CounterClockwise.String() != "ccw" {
		t.Error("Direction strings wrong")
	}
	// Crosses names exactly the links arcLinks walks, for every arc of
	// every small ring in both directions.
	for m := 2; m <= 9; m++ {
		for s := 0; s < m; s++ {
			for u := 0; u < m; u++ {
				for _, dir := range []Direction{Clockwise, CounterClockwise} {
					walked := make([]bool, m)
					arcLinks(m, s, u, dir, func(l int) { walked[l] = true })
					a := Assignment{S: s, T: u, Dir: dir}
					for l := range walked {
						if a.Crosses(m, l) != walked[l] {
							t.Fatalf("M=%d %d->%d %v link %d: Crosses %v, arcLinks %v", m, s, u, dir, l, !walked[l], walked[l])
						}
					}
				}
			}
		}
	}
}

// TestGreedyPlanProperty property-checks that for any ring size and
// seed, the greedy plan satisfies both §3.1 invariants, and its busiest
// link carries at least the load bound and at most every channel.
func TestGreedyPlanProperty(t *testing.T) {
	f := func(mm uint8, seed int64) bool {
		m := int(mm%30) + 2
		p := Greedy(m, rand.New(rand.NewSource(seed)))
		load := p.MaxLinkLoad()
		return p.Validate() == nil && p.Channels >= OptimalChannels(m) &&
			load >= LowerBound(m) && load <= p.Channels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSplitPlanProperty property-checks splitting across 1-4 rings:
// valid, or ErrIdleRings when rings outnumber channels.
func TestSplitPlanProperty(t *testing.T) {
	f := func(mm, rr uint8) bool {
		m := int(mm%20) + 4
		rings := int(rr%4) + 1
		p := Greedy(m, nil)
		per := (p.Channels + rings - 1) / rings
		split, err := SplitAcrossRings(p, rings, per)
		if rings > p.Channels {
			return errors.Is(err, ErrIdleRings)
		}
		if err != nil {
			return false
		}
		return split.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
