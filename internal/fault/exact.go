package fault

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/quartz-dcn/quartz/internal/wdm"
)

// exact answers Figure 6 for one plan without sampling.
//
// Loss: c cuts fall on distinct segments, uniformly over all n = r·M of
// them, so an arc that crosses ℓ segments survives with probability
// C(n−ℓ, c)/C(n, c), and the expected loss is 1 − the mean survival over
// arcs: a sum over a histogram of ℓ.
//
// Partitions: a count of the C(n, c) cut sets that split the mesh, ring
// by ring. Cutting k ≥ 1 segments of one ring leaves only the arcs that
// lie inside one of the k runs of switches between consecutive cuts, so
// the ring's surviving arcs split the switches into its runs, or finer
// where a run is not connected by the arcs inside it. The mesh splits
// exactly when the rings' partitions have a non-trivial join: a set of
// switches that is a union of blocks on every ring. The boundaries of a
// partition are the segments whose two switches lie in different blocks
// (a partition into runs has its cuts as its boundaries), and a set
// closed on every ring has at least two boundaries, each one every
// ring's. That test prunes nearly every combination before a join.
type exact struct {
	m, rings, n, arcs int
	// spans[ℓ] is the number of arcs that cross ℓ segments.
	spans []int
	// Ring r's arcs whose clockwise span ends at switch v cross
	// span[at[r*m+v]:at[r*m+v+1]] segments each, the segments of segs.
	at   []int32
	span []uint8
	segs []uint64
	// conn[r*m+s] has bit L−1 set when ring r's arcs inside the run of L
	// switches s, s+1, … connect it.
	conn []uint64
	// kappa[r] is the fewest cuts that split ring r's own arcs: 0 if
	// they are split already, else 1 or 2, since any two cuts split a
	// ring. count visits the rings in order, by kappa (the rings whose
	// arcs are split already narrow the join first), and rest[i] is the
	// kappa of order[i:].
	kappa, order, rest []int
	// finer[r][k-1] lists ring r's sets of k ∈ {1, 2} cuts that split it
	// into blocks finer than its runs; nil until count first needs them.
	finer [][2][]cutSet
	// joined[i] is count's scratch: the join of the partitions of the
	// rings order[:i+1].
	joined []labels
	// all has a bit for each of the M segment indices.
	all uint64
	// ctx is the caller's. count asks it every 1 024 placements
	// (stopped), and err keeps its answer once it is done.
	ctx  context.Context
	err  error
	tick uint
}

// cutSet is one ring's cut segments, the blocks they leave and those
// blocks' boundaries.
type cutSet struct {
	cuts, bounds uint64
	blocks       labels
}

// labels gives each switch a representative switch of its block.
type labels [64]uint8

// forest is a union–find over at most 64 switches, indexed by uint8 so
// that find needs no bounds checks.
type forest [256]uint8

func (f *forest) reset(m int) {
	for i := 0; i < m; i++ {
		f[i] = uint8(i)
	}
}

func (f *forest) find(x uint8) uint8 {
	for f[x] != x {
		f[x] = f[f[x]]
		x = f[x]
	}
	return x
}

// union joins the trees of a and b and reports whether they were apart.
func (f *forest) union(a, b uint8) bool {
	a, b = f.find(a), f.find(b)
	if a == b {
		return false
	}
	f[a] = b
	return true
}

func newExact(ctx context.Context, plan *wdm.Plan) (*exact, error) {
	rings, err := checkPlan(plan)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m, arcs := plan.M, len(plan.Assignments)
	x := &exact{
		m: m, rings: rings, n: rings * m, arcs: arcs,
		spans:  make([]int, m),
		at:     make([]int32, rings*m+1),
		span:   make([]uint8, arcs),
		segs:   make([]uint64, arcs),
		conn:   make([]uint64, rings*m),
		kappa:  make([]int, rings),
		order:  make([]int, rings),
		rest:   make([]int, rings+1),
		finer:  make([][2][]cutSet, rings),
		joined: make([]labels, rings),
		all:    math.MaxUint64 >> uint(64-m),
		ctx:    ctx,
	}
	// Bucket the arcs by (ring, end): count, take prefix sums to bucket
	// starts, place each arc at its bucket's cursor, and shift the
	// cursors (now bucket ends) back into starts.
	for _, a := range plan.Assignments {
		from, l := a.Span(m)
		x.spans[l]++
		x.at[a.Ring*m+(from+l)%m+1]++
	}
	for i := 1; i < len(x.at); i++ {
		x.at[i] += x.at[i-1]
	}
	for _, a := range plan.Assignments {
		from, l := a.Span(m)
		j := &x.at[a.Ring*m+(from+l)%m]
		segs := uint64(1)<<uint(l) - 1
		x.span[*j], x.segs[*j] = uint8(l), (segs<<uint(from)|segs>>uint(m-from))&x.all
		*j++
	}
	copy(x.at[1:], x.at)
	x.at[0] = 0

	for r := range x.order {
		x.connect(r)
		var p labels
		if x.components(r, 0, &p) == 0 {
			x.kappa[r] = 2
			for s := 0; s < m; s++ {
				if !x.runsConnected(r, 1<<uint(s)) {
					x.kappa[r] = 1
				}
			}
		}
		x.order[r] = r
	}
	slices.SortStableFunc(x.order, func(a, b int) int { return x.kappa[a] - x.kappa[b] })
	for i := rings - 1; i >= 0; i-- {
		x.rest[i] = x.kappa[x.order[i]] + x.rest[i+1]
	}
	return x, nil
}

// finerSets returns ring r's sets of k ∈ {1, 2} cuts that split it
// into blocks finer than its runs: single cuts whose run is not
// connected, and pairs with a run that is not. The first call builds
// both lists in one allocation, counted before it is filled.
func (x *exact) finerSets(r, k int) []cutSet {
	if x.finer[r][0] == nil {
		m, singles, pairs := x.m, 0, 0
		for a := 0; a < m; a++ {
			if !x.runsConnected(r, 1<<uint(a)) {
				singles++
			}
			for b := a + 1; b < m; b++ {
				if !x.runsConnected(r, 1<<uint(a)|1<<uint(b)) {
					pairs++
				}
			}
		}
		buf := make([]cutSet, 0, singles+pairs)
		sets := [2][]cutSet{buf[:0:singles], buf[singles:singles]}
		add := func(k int, cuts uint64) {
			if !x.runsConnected(r, cuts) {
				s := cutSet{cuts: cuts}
				s.bounds = x.components(r, cuts, &s.blocks)
				sets[k-1] = append(sets[k-1], s)
			}
		}
		for a := 0; a < m; a++ {
			add(1, 1<<uint(a))
			for b := a + 1; b < m; b++ {
				add(2, 1<<uint(a)|1<<uint(b))
			}
		}
		x.finer[r] = sets
	}
	return x.finer[r][k-1]
}

// connect fills ring r's rows of conn: from each start switch, it adds
// the switches of the run one at a time, each with the arcs that end
// there and start inside the run — those that span fewer segments than
// the run has switches. The forest holds offsets into the run.
func (x *exact) connect(r int) {
	m := x.m
	for s := 0; s < m; s++ {
		var f forest
		f.reset(m)
		comps := 0
		for l, v := 1, s; l <= m; l, v = l+1, v+1 {
			if v == m {
				v = 0
			}
			comps++
			for j := x.at[r*m+v]; j < x.at[r*m+v+1]; j++ {
				if d := int(x.span[j]); d < l && f.union(uint8(l-1-d), uint8(l-1)) {
					comps--
				}
			}
			if comps == 1 {
				x.conn[r*m+s] |= 1 << uint(l-1)
			}
		}
	}
}

// runsConnected reports whether ring r's arcs connect every run between
// consecutive cuts of a non-empty cut mask.
func (x *exact) runsConnected(r int, cuts uint64) bool {
	first := bits.TrailingZeros64(cuts)
	prev := first
	for more := cuts & (cuts - 1); ; more &= more - 1 {
		next := first + x.m
		if more != 0 {
			next = bits.TrailingZeros64(more)
		}
		if x.conn[r*x.m+(prev+1)%x.m]>>uint(next-prev-1)&1 == 0 {
			return false
		}
		if more == 0 {
			return true
		}
		prev = next
	}
}

// partition labels the blocks ring r's arcs leave under cuts and returns
// their boundaries, or 0 if fewer than two of them are in bounds (a ring
// that stays connected has none).
func (x *exact) partition(r int, cuts, bounds uint64, p *labels) uint64 {
	if b := x.components(r, cuts, p); bits.OnesCount64(b&bounds) >= 2 {
		return b
	}
	return 0
}

// runLabels labels each switch with the first switch of its run.
func (x *exact) runLabels(cuts uint64, p *labels) {
	first, cur := bits.TrailingZeros64(cuts), 0
	for i := 1; i <= x.m; i++ {
		v := (first + i) % x.m
		if cuts>>uint((v+x.m-1)%x.m)&1 != 0 {
			cur = v
		}
		p[v] = uint8(cur)
	}
}

// components labels the components of ring r's arcs that cross no cut
// and returns their boundaries.
func (x *exact) components(r int, cuts uint64, p *labels) uint64 {
	var f forest
	f.reset(x.m)
	for v := 0; v < x.m; v++ {
		for j := x.at[r*x.m+v]; j < x.at[r*x.m+v+1]; j++ {
			if x.segs[j]&cuts == 0 {
				f.union(uint8((v-int(x.span[j])+x.m)%x.m), uint8(v))
			}
		}
	}
	for v := 0; v < x.m; v++ {
		p[v] = f.find(uint8(v))
	}
	return x.bounds(p)
}

// join labels the finest partition both a and b refine and returns its
// boundaries.
func (x *exact) join(a, b, out *labels) uint64 {
	var f forest
	f.reset(x.m)
	for v := 0; v < x.m; v++ {
		f.union(uint8(v), a[v])
		f.union(uint8(v), b[v])
	}
	for v := 0; v < x.m; v++ {
		out[v] = f.find(uint8(v))
	}
	return x.bounds(out)
}

// bounds returns the segments whose two switches p puts in different
// blocks.
func (x *exact) bounds(p *labels) (b uint64) {
	for s := 0; s < x.m; s++ {
		next := s + 1
		if next == x.m {
			next = 0
		}
		if p[s] != p[next] {
			b |= 1 << uint(s)
		}
	}
	return b
}

// closedRun reports whether the run of switches a+1 … b is a union of
// j's blocks.
func (x *exact) closedRun(j *labels, a, b int) bool {
	var in uint64
	for v := a + 1; v <= b; v++ {
		in |= 1 << j[v]
	}
	for v := b + 1; v < a+1+x.m; v++ {
		if in>>j[v%x.m]&1 != 0 {
			return false
		}
	}
	return true
}

// partitions counts the sets of c cut segments that split the mesh.
func (x *exact) partitions(c int) int64 {
	return x.count(0, c, nil, x.all)
}

// count counts the ways to place `left` cuts on rings order[i:] so that,
// with the partition j that rings order[:i] left (nil: none yet) and its
// boundaries bounds, the mesh splits. Each ring takes at least its kappa
// and leaves the later rings theirs; the last takes all that is left.
//
// A ring's one or two cuts come from its finer sets and, for two, from
// the pairs of j's boundaries whose runs are connected: any other pair
// splits the ring into its two runs, with fewer than two boundaries in
// common with j. On the last ring such a pair splits the mesh exactly
// when one of its runs is a union of j's blocks, so it is matched by
// its cuts rather than joined.
func (x *exact) count(i, left int, j *labels, bounds uint64) (n int64) {
	r, last := x.order[i], i == x.rings-1
	lo, hi := x.kappa[r], min(x.m, left-x.rest[i+1])
	if last {
		lo = max(lo, left)
	}
	for k := lo; k <= hi; k++ {
		if k != 1 && k != 2 {
			for cuts, more := uint64(1)<<uint(k)-1, true; more; cuts, more = nextSubset(cuts, x.m) {
				if x.stopped() {
					return n
				}
				var p labels
				if pb := x.partition(r, cuts, bounds, &p); pb != 0 {
					n += x.descend(i, left-k, j, &p, pb)
				}
			}
			continue
		}
		sets := x.finerSets(r, k)
		for f := range sets {
			if x.stopped() {
				return n
			}
			if s := &sets[f]; bits.OnesCount64(s.bounds&bounds) >= 2 {
				n += x.descend(i, left-k, j, &s.blocks, s.bounds)
			}
		}
		for a := bounds; k == 2 && a != 0; a &= a - 1 {
			for b := a & (a - 1); b != 0; b &= b - 1 {
				if x.stopped() {
					return n
				}
				sa, sb := bits.TrailingZeros64(a), bits.TrailingZeros64(b)
				cuts := uint64(1)<<uint(sa) | uint64(1)<<uint(sb)
				switch {
				case !x.runsConnected(r, cuts):
				case last:
					if j == nil || x.closedRun(j, sa, sb) {
						n++
					}
				default:
					var p labels
					x.runLabels(cuts, &p)
					n += x.descend(i, left-2, j, &p, cuts)
				}
			}
		}
	}
	return n
}

// stopped counts one placement and reports whether ctx is done. It asks
// ctx when cell starts and every 1 024 placements after, and remembers
// a done context: a cancelled count unwinds with what it had counted,
// which cell discards.
func (x *exact) stopped() bool {
	if x.tick++; x.tick%1024 == 1 && x.err == nil {
		x.err = x.ctx.Err()
	}
	return x.err != nil
}

// descend joins ring order[i]'s partition p, with boundaries pb, into j
// and counts the ways the later rings can take the `left` cuts.
func (x *exact) descend(i, left int, j, p *labels, pb uint64) int64 {
	q, qb := &x.joined[i], pb
	if j == nil {
		*q = *p
	} else if qb = x.join(j, p, q); qb == 0 {
		return 0
	}
	if i == x.rings-1 {
		return 1
	}
	return x.count(i+1, left, q, qb)
}

// nextSubset returns the next larger mask of m bits with as many bits
// set as v (Gosper's hack), and false after the last.
func nextSubset(v uint64, m int) (uint64, bool) {
	t := v | (v - 1)
	if v == 0 || t == math.MaxUint64 {
		return 0, false
	}
	w := (t + 1) | (^t&(t+1)-1)>>uint(bits.TrailingZeros64(v)+1)
	return w, w>>uint(m) == 0
}

// cell is the exact Figure 6 cell for c cuts, or ctx's error once it
// is done.
func (x *exact) cell(c int) (Result, error) {
	if c < 1 || c > x.n {
		return Result{}, fmt.Errorf("fault: %d cuts outside 1…%d fiber segments", c, x.n)
	}
	if x.tick = 0; x.stopped() {
		return Result{}, x.err
	}
	survive := 0.0
	for l, arcs := range x.spans {
		p := float64(arcs)
		for i := 0; i < c && p != 0; i++ {
			p *= float64(max(0, x.n-l-i)) / float64(x.n-i)
		}
		survive += p
	}
	res := Result{AvgBandwidthLoss: 1 - survive/float64(x.arcs)}
	if x.rings == 1 && c >= 2 {
		res.PartitionProb = 1 // any two cuts split one ring
	} else {
		sets := 1.0 // C(n, c), exact below 2^53
		for i := 1; i <= c; i++ {
			sets = sets * float64(x.n-c+i) / float64(i)
		}
		n := x.partitions(c)
		if x.err != nil {
			return Result{}, x.err
		}
		res.PartitionProb = float64(n) / sets
	}
	return res, nil
}
