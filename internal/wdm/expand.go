package wdm

import (
	"fmt"
	"math/rand"
	"sort"
)

// ExpansionStats quantifies the disruption of growing a ring in place —
// the §8 claim that Quartz "can be incrementally deployed as needed":
// new switches are spliced into the fiber between the old last switch
// and switch 0, existing transceivers keep their wavelength wherever
// the new plan allows, and only the channels whose arcs crossed the
// splice point (plus the new pairs) need attention.
type ExpansionStats struct {
	From, To int
	// Kept counts existing pairs whose wavelength and path survive
	// unchanged — no operator action at all.
	Kept int
	// Retuned counts existing pairs whose transceivers must retune to a
	// new wavelength (their arc crossed the splice or their old channel
	// now conflicts).
	Retuned int
	// Added counts the new pairs involving the new switches.
	Added int
	// ChannelsBefore/After are the wavelength counts of the two plans.
	ChannelsBefore, ChannelsAfter int
}

func (s ExpansionStats) String() string {
	return fmt.Sprintf("expand %d->%d: %d kept, %d retuned, %d added; channels %d -> %d",
		s.From, s.To, s.Kept, s.Retuned, s.Added, s.ChannelsBefore, s.ChannelsAfter)
}

// ExpandPlan grows a single-fiber plan from its ring size to newM
// switches with minimal disruption. The new switches are inserted
// between switch old.M-1 and switch 0, so fiber links 0..old.M-2 keep
// their identity; every old assignment whose arc avoided the splice
// keeps its exact links and wavelength. Arcs that crossed the splice,
// and all pairs involving new switches, are assigned greedily on top.
//
// The input must be a single-ring plan (expand before splitting across
// fibers). The result is a valid plan for the larger ring plus the
// disruption statistics.
func ExpandPlan(old *Plan, newM int, rng *rand.Rand) (*Plan, ExpansionStats, error) {
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

	// Channel occupancy on the new ring, and one arc's links.
	occ := newOccupancy(newM)
	arc := make([]uint64, occ.w)

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
		// assignment can never self-conflict; its channel must be free.
		arcMask(arc, newM, a.S, a.T, a.Dir)
		if !occ.free(a.Channel, arc) {
			return nil, ExpansionStats{}, fmt.Errorf("wdm: internal: surviving assignment (%d,%d) conflicts", a.S, a.T)
		}
		occ.take(a.Channel, arc)
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
		arcMask(arc, newM, pr[0], pr[1], dir)
		out = append(out, Assignment{S: pr[0], T: pr[1], Dir: dir, Channel: occ.firstFit(arc)})
	}
	plan := &Plan{M: newM, Channels: occ.channels(), Rings: 1, Assignments: out}
	stats.ChannelsAfter = plan.Channels
	if err := plan.Validate(); err != nil {
		return nil, ExpansionStats{}, fmt.Errorf("wdm: expanded plan invalid: %w", err)
	}
	return plan, stats, nil
}
