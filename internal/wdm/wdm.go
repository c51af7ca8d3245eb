// Package wdm solves the Quartz wavelength (channel) assignment problem
// of §3.1: give every pair of switches on a physical ring of size M a
// dedicated wavelength such that no wavelength is used twice on any
// fiber link, minimizing the number of distinct wavelengths.
//
// Greedy is the paper's longest-path-first heuristic (§3.1.1), and the
// one planner: ExpandPlan grows its plans and SplitAcrossRings spreads
// them over fibers. OptimalChannels is the closed-form minimum, the
// value the paper's ILP computes. The tests hold the two together: an
// exact branch-and-bound proves the closed form for M ≤ 10, and some
// Greedy seed reaches it at every M up to 41.
//
// Ring conventions: nodes are 0..M-1 around the ring; fiber link i joins
// node i and node (i+1) mod M. A clockwise arc starting at node s with
// length L covers links s, s+1, ..., s+L-1 (mod M).
package wdm

import "fmt"

// Direction of travel around the ring.
type Direction uint8

// Arc directions.
const (
	Clockwise Direction = iota
	CounterClockwise
)

func (d Direction) String() string {
	if d == Clockwise {
		return "cw"
	}
	return "ccw"
}

// Assignment dedicates one wavelength channel to one switch pair.
type Assignment struct {
	// S, T are the pair's endpoints, S < T.
	S, T int
	// Dir is the direction of the arc from S to T.
	Dir Direction
	// Channel is the wavelength index, 0-based.
	Channel int
	// Ring is the physical fiber ring carrying this channel (0 unless
	// the plan has been split across multiple rings; §3.5).
	Ring int
}

// Plan is a complete channel assignment for a ring of M switches.
type Plan struct {
	// M is the ring size (number of switches).
	M int
	// Channels is the number of distinct wavelengths used per ring.
	Channels int
	// Rings is the number of physical fiber rings (1 unless split).
	Rings int
	// Assignments has one entry per unordered switch pair.
	Assignments []Assignment
}

// arcLen returns the number of links in the arc from s to t going dir.
func arcLen(m, s, t int, dir Direction) int {
	if dir == Clockwise {
		return (t - s + m) % m
	}
	return (s - t + m) % m
}

// Span returns the links the assignment's arc covers on a ring of m
// switches: n consecutive links clockwise from link from, which starts
// at S for the clockwise arc and at T for the counter-clockwise one.
func (a Assignment) Span(m int) (from, n int) {
	from = a.S
	if a.Dir == CounterClockwise {
		from = a.T
	}
	return from, arcLen(m, a.S, a.T, a.Dir)
}

// Crosses reports whether the assignment's arc covers fiber link l of a
// ring of m switches: one comparison against the arc's Span.
func (a Assignment) Crosses(m, l int) bool {
	from, n := a.Span(m)
	return (l-from+m)%m < n
}

// arcMask sets mask to the link bitset of the arc from s to t going dir:
// bit l%64 of word l/64 for every link l the arc covers. The links are
// consecutive round the ring, from s clockwise or from t for the
// counter-clockwise arc.
func arcMask(mask []uint64, m, s, t int, dir Direction) {
	clear(mask)
	l := s
	if dir == CounterClockwise {
		l = t
	}
	for n := arcLen(m, s, t, dir); n > 0; n-- {
		mask[l/64] |= 1 << uint(l%64)
		if l++; l == m {
			l = 0
		}
	}
}

// occupancy is first-fit's record of the fiber links each channel
// already carries: channel c's links are the bitset words[c*w:(c+1)*w]
// of w = ⌈M/64⌉ words. An arc's links are one bitset of the same shape
// (arcMask), built once per arc, so "free on every link" is a word-wise
// AND. Greedy and ExpandPlan share it.
type occupancy struct {
	w     int
	words []uint64
}

func newOccupancy(m int) *occupancy { return &occupancy{w: max(1, (m+63)/64)} }

// channels is the number of channels touched: one past the highest
// taken, gaps included.
func (o *occupancy) channels() int { return len(o.words) / o.w }

// free reports whether channel c carries none of arc's links; a channel
// not touched yet carries nothing.
func (o *occupancy) free(c int, arc []uint64) bool {
	if c >= o.channels() {
		return true
	}
	for i, b := range o.words[c*o.w : (c+1)*o.w] {
		if b&arc[i] != 0 {
			return false
		}
	}
	return true
}

// take marks arc's links as carried by channel c, touching every channel
// up to c.
func (o *occupancy) take(c int, arc []uint64) {
	for len(o.words) < (c+1)*o.w {
		o.words = append(o.words, 0)
	}
	for i, b := range arc {
		o.words[c*o.w+i] |= b
	}
}

// firstFit takes, and returns, the lowest channel free on every link of
// arc.
func (o *occupancy) firstFit(arc []uint64) int {
	c := 0
	for !o.free(c, arc) {
		c++
	}
	o.take(c, arc)
	return c
}

// OptimalChannels returns the provably minimum number of wavelengths for
// all-pairs communication on a ring of M switches — the value the
// paper's ILP computes. The closed form is the classical all-to-all
// ring RWA result:
//
//	M odd:         (M^2-1)/8
//	M ≡ 2 (mod 4): (M^2+4)/8
//	M ≡ 0 (mod 4): M^2/8 + 1
//
// The even cases exceed the naive load bound because the M/2 diametral
// pairs cannot be split without stacking three deep somewhere (for
// example, M=4 provably needs 3 channels, not 2). The tests' exact
// solver proves the formula for M ≤ 10, and TestGreedyWitnessesClosedForm
// finds a Greedy plan at exactly this count for every M up to 41.
func OptimalChannels(m int) int {
	if m < 2 {
		return 0
	}
	switch {
	case m%2 == 1:
		return (m*m - 1) / 8
	case m%4 == 2:
		return (m*m + 4) / 8
	default:
		return m*m/8 + 1
	}
}

// Pairs returns all unordered pairs of a ring of size m in (s,t) order.
func Pairs(m int) [][2]int {
	var out [][2]int
	if m > 1 {
		out = make([][2]int, 0, m*(m-1)/2)
	}
	for s := 0; s < m; s++ {
		for t := s + 1; t < m; t++ {
			out = append(out, [2]int{s, t})
		}
	}
	return out
}

// Validate checks the two invariants of §3.1: (1) every unordered pair
// has exactly one assigned channel along one arc, and (2) on every fiber
// link of every ring, a wavelength is used at most once.
func (p *Plan) Validate() error {
	if p.M < 2 {
		if len(p.Assignments) != 0 {
			return fmt.Errorf("wdm: ring of %d has %d assignments", p.M, len(p.Assignments))
		}
		return nil
	}
	rings := p.Rings
	if rings == 0 {
		rings = 1
	}
	seen := make(map[[2]int]bool, len(p.Assignments))
	type slot struct{ ring, link, ch int }
	used := make(map[slot][2]int, len(p.Assignments)*p.M/4)
	for _, a := range p.Assignments {
		if a.S < 0 || a.T >= p.M || a.S >= a.T {
			return fmt.Errorf("wdm: bad pair (%d,%d) for M=%d", a.S, a.T, p.M)
		}
		if a.Channel < 0 || a.Channel >= p.Channels {
			return fmt.Errorf("wdm: pair (%d,%d) uses channel %d outside [0,%d)", a.S, a.T, a.Channel, p.Channels)
		}
		if a.Ring < 0 || a.Ring >= rings {
			return fmt.Errorf("wdm: pair (%d,%d) on ring %d outside [0,%d)", a.S, a.T, a.Ring, rings)
		}
		if a.Dir > CounterClockwise {
			return fmt.Errorf("wdm: pair (%d,%d) has direction %d, neither cw nor ccw", a.S, a.T, a.Dir)
		}
		key := [2]int{a.S, a.T}
		if seen[key] {
			return fmt.Errorf("wdm: pair (%d,%d) assigned twice", a.S, a.T)
		}
		seen[key] = true
		from, n := a.Span(p.M)
		for i := range n {
			link := (from + i) % p.M
			s := slot{a.Ring, link, a.Channel}
			if other, clash := used[s]; clash {
				return fmt.Errorf("wdm: channel %d reused on ring %d link %d by (%d,%d) and (%d,%d)",
					a.Channel, a.Ring, link, other[0], other[1], a.S, a.T)
			}
			used[s] = key
		}
	}
	if want := p.M * (p.M - 1) / 2; len(seen) != want {
		return fmt.Errorf("wdm: %d pairs assigned, want %d", len(seen), want)
	}
	return nil
}

// MaxLinkLoad returns the maximum number of channels traversing any one
// fiber link in the plan (per ring). The plan must validate.
func (p *Plan) MaxLinkLoad() int {
	rings := p.Rings
	if rings == 0 {
		rings = 1
	}
	load := make([][]int, rings)
	for r := range load {
		load[r] = make([]int, p.M)
	}
	peak := 0
	for _, a := range p.Assignments {
		from, n := a.Span(p.M)
		for i := range n {
			l := &load[a.Ring][(from+i)%p.M]
			*l++
			peak = max(peak, *l)
		}
	}
	return peak
}

// shortestDirections routes every pair along its shorter arc, breaking
// diametral ties (even M) by alternating directions so the load stays
// balanced. It returns the per-pair directions in Pairs(m) order.
func shortestDirections(m int) []Direction {
	pairs := Pairs(m)
	dirs := make([]Direction, len(pairs))
	diametral := 0
	for i, pr := range pairs {
		cw := arcLen(m, pr[0], pr[1], Clockwise)
		ccw := arcLen(m, pr[0], pr[1], CounterClockwise)
		switch {
		case cw < ccw:
			dirs[i] = Clockwise
		case ccw < cw:
			dirs[i] = CounterClockwise
		default:
			// Diametral pair: alternate to balance the two half-rings.
			if diametral%2 == 0 {
				dirs[i] = Clockwise
			} else {
				dirs[i] = CounterClockwise
			}
			diametral++
		}
	}
	return dirs
}
