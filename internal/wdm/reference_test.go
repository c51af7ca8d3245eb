package wdm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// arcLinks calls fn for each fiber link index covered by the arc from s
// to t in direction dir on a ring of size m, walking node by node: the
// references' own arc geometry, independent of Assignment.Span.
func arcLinks(m, s, t int, dir Direction, fn func(link int)) {
	switch dir {
	case Clockwise:
		for i := s; i != t; i = (i + 1) % m {
			fn(i)
		}
	case CounterClockwise:
		for i := s; i != t; i = (i - 1 + m) % m {
			fn((i - 1 + m) % m)
		}
	}
}

// refGreedy and refExpandPlan are Greedy and ExpandPlan as they stood
// before first-fit moved onto link bitsets: a [][]bool occupancy table,
// and each channel tested link by link. They live only
// in this test file (no production switch selects them) and the tests
// below demand plans equal under reflect.DeepEqual, not merely valid.

func refGreedy(m int, rng *rand.Rand) *Plan {
	if m < 2 {
		return &Plan{M: m, Rings: 1}
	}
	pairs := Pairs(m)
	dirs := shortestDirections(m)
	type path struct {
		idx int // into pairs/dirs
		len int
	}
	paths := make([]path, len(pairs))
	for i, pr := range pairs {
		paths[i] = path{idx: i, len: arcLen(m, pr[0], pr[1], dirs[i])}
	}
	// Longest first; within a length, rotate the start location.
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].len > paths[j].len })
	start := 0
	if rng != nil {
		start = rng.Intn(m)
	}
	sort.SliceStable(paths, func(i, j int) bool {
		if paths[i].len != paths[j].len {
			return paths[i].len > paths[j].len
		}
		si := (pairs[paths[i].idx][0] - start + m) % m
		sj := (pairs[paths[j].idx][0] - start + m) % m
		return si < sj
	})

	// usage[ch] is a bitmask-ish bool slice of links occupied by channel ch.
	var usage [][]bool
	assigned := make([]Assignment, 0, len(pairs))
	for _, p := range paths {
		pr := pairs[p.idx]
		dir := dirs[p.idx]
		ch := -1
		for c := 0; c < len(usage); c++ {
			// arcLinks' walk, stopping at the first occupied link.
			free := true
			for i := pr[0]; free && i != pr[1]; {
				link := i
				if dir == Clockwise {
					i = (i + 1) % m
				} else {
					i = (i - 1 + m) % m
					link = i
				}
				free = !usage[c][link]
			}
			if free {
				ch = c
				break
			}
		}
		if ch == -1 {
			usage = append(usage, make([]bool, m))
			ch = len(usage) - 1
		}
		arcLinks(m, pr[0], pr[1], dir, func(link int) { usage[ch][link] = true })
		assigned = append(assigned, Assignment{S: pr[0], T: pr[1], Dir: dir, Channel: ch})
	}
	return &Plan{M: m, Channels: len(usage), Rings: 1, Assignments: assigned}
}

func refExpandPlan(old *Plan, newM int, rng *rand.Rand) (*Plan, ExpansionStats, error) {
	if old.Rings > 1 {
		return nil, ExpansionStats{}, fmt.Errorf("wdm: expand a single-ring plan, then split")
	}
	if newM <= old.M {
		return nil, ExpansionStats{}, fmt.Errorf("wdm: new size %d not larger than %d", newM, old.M)
	}
	if err := old.Validate(); err != nil {
		return nil, ExpansionStats{}, fmt.Errorf("wdm: invalid input plan: %w", err)
	}
	stats := ExpansionStats{From: old.M, To: newM, ChannelsBefore: old.Channels}

	// usage[ch][link] occupancy on the new ring.
	var usage [][]bool
	ensure := func(ch int) {
		for len(usage) <= ch {
			usage = append(usage, make([]bool, newM))
		}
	}
	occupy := func(a Assignment) bool {
		ensure(a.Channel)
		free := true
		arcLinks(newM, a.S, a.T, a.Dir, func(l int) {
			if usage[a.Channel][l] {
				free = false
			}
		})
		if !free {
			return false
		}
		arcLinks(newM, a.S, a.T, a.Dir, func(l int) { usage[a.Channel][l] = true })
		return true
	}

	// Splice point: old link old.M-1 (joining old.M-1 and 0) is cut and
	// the new switches take indices old.M..newM-1 there. An old
	// clockwise arc s->t crossed the splice iff s > t (it wrapped); a
	// counter-clockwise arc crossed iff it wrapped the other way
	// (s < t means ccw from s passes 0... ccw from s to t covers links
	// s-1..t, wrapping iff s < t).
	crossedSplice := func(a Assignment) bool {
		if a.Dir == Clockwise {
			return a.S > a.T
		}
		return a.S < a.T
	}

	var out []Assignment
	var pending [][2]int
	for _, a := range old.Assignments {
		if crossedSplice(a) {
			pending = append(pending, [2]int{a.S, a.T})
			stats.Retuned++
			continue
		}
		// Same links as before, so keeping every non-crossing
		// assignment can never self-conflict; occupy must succeed.
		if !occupy(a) {
			return nil, ExpansionStats{}, fmt.Errorf("wdm: internal: surviving assignment (%d,%d) conflicts", a.S, a.T)
		}
		out = append(out, a)
		stats.Kept++
	}
	// New pairs: everything touching switches old.M..newM-1.
	for s := 0; s < newM; s++ {
		for t := s + 1; t < newM; t++ {
			if s >= old.M || t >= old.M {
				pending = append(pending, [2]int{s, t})
				stats.Added++
			}
		}
	}
	// Assign the pending pairs longest-shortest-arc first.
	dirFor := func(pr [2]int) Direction {
		if arcLen(newM, pr[0], pr[1], Clockwise) <= arcLen(newM, pr[0], pr[1], CounterClockwise) {
			return Clockwise
		}
		return CounterClockwise
	}
	sort.SliceStable(pending, func(i, j int) bool {
		li := arcLen(newM, pending[i][0], pending[i][1], dirFor(pending[i]))
		lj := arcLen(newM, pending[j][0], pending[j][1], dirFor(pending[j]))
		return li > lj
	})
	if rng != nil {
		// Random rotation within equal lengths, as in Greedy.
		start := rng.Intn(newM)
		sort.SliceStable(pending, func(i, j int) bool {
			li := arcLen(newM, pending[i][0], pending[i][1], dirFor(pending[i]))
			lj := arcLen(newM, pending[j][0], pending[j][1], dirFor(pending[j]))
			if li != lj {
				return li > lj
			}
			return (pending[i][0]-start+newM)%newM < (pending[j][0]-start+newM)%newM
		})
	}
	for _, pr := range pending {
		dir := dirFor(pr)
		placed := false
		for ch := 0; !placed; ch++ {
			ensure(ch)
			a := Assignment{S: pr[0], T: pr[1], Dir: dir, Channel: ch}
			if occupy(a) {
				out = append(out, a)
				placed = true
			}
		}
	}
	plan := &Plan{M: newM, Channels: len(usage), Rings: 1, Assignments: out}
	stats.ChannelsAfter = plan.Channels
	if err := plan.Validate(); err != nil {
		return nil, ExpansionStats{}, fmt.Errorf("wdm: expanded plan invalid: %w", err)
	}
	return plan, stats, nil
}

// referenceSizes are the ring sizes of the differential tests: every
// size up to 70, then 96, 128 and 129, where a channel's link set spans
// two and three 64-bit words.
func referenceSizes() []int {
	var ms []int
	for m := 0; m <= 70; m++ {
		ms = append(ms, m)
	}
	return append(ms, 96, 128, 129)
}

// The reference first-fit costs O(M⁵): the multi-word sizes take seconds
// each, so every size is a parallel subtest.

func TestGreedyMatchesReference(t *testing.T) {
	for _, m := range referenceSizes() {
		t.Run(fmt.Sprintf("M=%d", m), func(t *testing.T) {
			t.Parallel()
			if got, want := Greedy(m, nil), refGreedy(m, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("nil rng: plan differs from the reference")
			}
			for seed := int64(1); seed <= 4; seed++ {
				rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				if got, want := Greedy(m, rng), refGreedy(m, refRng); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: plan differs from the reference", seed)
				}
				if a, b := rng.Int63(), refRng.Int63(); a != b {
					t.Fatalf("seed %d: rng left at a different position", seed)
				}
			}
		})
	}
}

func TestExpandPlanMatchesReference(t *testing.T) {
	// Every kept-channel case, with and without the rotated start: growth
	// by one switch and by many, across the one-, two- and three-word link
	// sets. Every counter-clockwise arc of a greedy plan wraps past switch
	// 0, so each expansion re-assigns arcs that crossed the splice. The
	// last plan keeps an arc on channel 5 of a plan that uses only channels
	// 0 and 5, so the expanded plan counts the gap below it.
	gapped := &Plan{M: 3, Channels: 6, Rings: 1, Assignments: []Assignment{
		{S: 0, T: 1, Dir: Clockwise, Channel: 5},
		{S: 0, T: 2, Dir: CounterClockwise, Channel: 0},
		{S: 1, T: 2, Dir: Clockwise, Channel: 0},
	}}
	type growth struct {
		old *Plan
		to  int
	}
	var cases []growth
	for _, mm := range [][2]int{{2, 3}, {3, 9}, {8, 12}, {12, 16}, {33, 35}, {60, 70}, {64, 65}, {70, 96}, {127, 129}} {
		cases = append(cases, growth{Greedy(mm[0], rand.New(rand.NewSource(int64(mm[0])))), mm[1]})
	}
	cases = append(cases, growth{gapped, 5})
	if got, _, _ := ExpandPlan(gapped, 5, nil); got.Channels < 6 {
		t.Errorf("expanded gapped plan has %d channels, want the kept channel 5 counted", got.Channels)
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%d->%d", c.old.M, c.to), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{0, 1, 2} {
				var rng, refRng *rand.Rand // seed 0: nil, no rotation
				if seed != 0 {
					rng, refRng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				}
				got, gotStats, err := ExpandPlan(c.old, c.to, rng)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				want, wantStats, err := refExpandPlan(c.old, c.to, refRng)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					t.Fatalf("seed %d: plan or stats differ from the reference (%v vs %v)", seed, gotStats, wantStats)
				}
			}
		})
	}
}
