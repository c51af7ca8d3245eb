package sim

import (
	"math/bits"
	"sort"
)

// eventQueue abstracts the engine's pending-event store. Both
// implementations order events by (time, schedule sequence), so the
// engine behaves identically regardless of the queue chosen.
//
// Events are held by value: neither backend boxes records through
// interface{} or allocates per event, and both reuse their backing
// storage across pushes and pops, so a steady-state simulation does no
// queue allocation at all.
type eventQueue interface {
	push(event)
	// pop removes and returns the earliest event; callers check len
	// first via size.
	pop() event
	// peekAt returns the earliest event's timestamp.
	peekAt() Time
	size() int
}

// before orders events by (at, seq).
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// heapQueue is the default binary-heap implementation: sift-up/down
// written directly against []event (container/heap would box every
// record through interface{} on Push and Pop).
type heapQueue struct {
	h []event
}

func (q *heapQueue) push(e event) {
	q.h = append(q.h, e)
	// Sift up.
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *heapQueue) pop() event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release closure/action references to the GC
	q.h = h[:n]
	// Sift down.
	h = q.h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			least = r
		}
		if !h[least].before(&h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

func (q *heapQueue) peekAt() Time { return q.h[0].at }
func (q *heapQueue) size() int    { return len(q.h) }

// bucket is one calendar day: a head-indexed slice of events sorted by
// (at, seq). Pops advance head instead of re-slicing, so the backing
// array's capacity is reused run-long; the popped slot is zeroed to
// release references.
type bucket struct {
	evs  []event
	head int
}

func (b *bucket) len() int { return len(b.evs) - b.head }

// compact reclaims the dead prefix once it dominates the slice, keeping
// push's append from growing the array without bound when a bucket
// never fully drains.
func (b *bucket) compact() {
	if b.head >= 64 && b.head*2 >= len(b.evs) {
		n := copy(b.evs, b.evs[b.head:])
		tail := b.evs[n:]
		for i := range tail {
			tail[i] = event{}
		}
		b.evs = b.evs[:n]
		b.head = 0
	}
}

// calendarQueue is a classic calendar-queue event store (Brown 1988):
// events hash into day buckets by timestamp; dequeue scans the current
// day. For workloads whose event horizon is dense and roughly uniform —
// packet simulations are — enqueue and dequeue approach O(1). The
// structure resizes itself to keep about one event per bucket.
//
// Both the day width and the bucket count are powers of two, so mapping
// a timestamp to its bucket is a shift and a mask rather than two
// 64-bit divisions per push.
type calendarQueue struct {
	buckets  []bucket
	mask     int  // len(buckets) - 1
	shift    uint // day width is 1 << shift
	dayStart Time // start time of the current day
	day      int  // current bucket index
	n        int
	resizeUp int
	resizeDn int
}

// newCalendarQueue returns a calendar queue tuned for picosecond
// packet workloads: the initial day width matches a few hundred
// nanoseconds of virtual time.
func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{}
	q.init(64, 256*Nanosecond, 0)
	return q
}

// init sizes the calendar: nbuckets must be a power of two; width is
// rounded down to one.
func (q *calendarQueue) init(nbuckets int, width, start Time) {
	q.buckets = make([]bucket, nbuckets)
	q.mask = nbuckets - 1
	q.shift = uint(bits.Len64(uint64(width))) - 1
	if start < 0 {
		start = 0
	}
	q.dayStart = start &^ (q.width() - 1)
	q.day = q.bucketFor(q.dayStart)
	q.resizeUp = 2 * nbuckets
	q.resizeDn = nbuckets/2 - 2
}

func (q *calendarQueue) width() Time { return Time(1) << q.shift }

func (q *calendarQueue) bucketFor(at Time) int {
	return int(at>>q.shift) & q.mask
}

func (q *calendarQueue) push(e event) {
	bk := &q.buckets[q.bucketFor(e.at)]
	evs := bk.evs
	if n := len(evs); n == bk.head || !e.before(&evs[n-1]) {
		// Sorts last in its day — the common case, since most events are
		// scheduled forward in time.
		bk.evs = append(evs, e)
	} else {
		// Insert keeping the live window sorted by (at, seq); buckets
		// stay short so linear insertion wins over anything clever.
		i := n - 1
		for i > bk.head && e.before(&evs[i-1]) {
			i--
		}
		evs = append(evs, event{})
		copy(evs[i+1:], evs[i:])
		evs[i] = e
		bk.evs = evs
	}
	q.n++
	if q.n > q.resizeUp {
		q.resize(len(q.buckets) * 2)
	}
}

func (q *calendarQueue) pop() event {
	width := q.width()
	for {
		// Scan forward from the current day for the next event that
		// belongs to the current year window.
		for i := 0; i < len(q.buckets); i++ {
			b := (q.day + i) & q.mask
			dayStart := q.dayStart + Time(i)<<q.shift
			bk := &q.buckets[b]
			if bk.len() > 0 && bk.evs[bk.head].at < dayStart+width {
				e := bk.evs[bk.head]
				bk.evs[bk.head] = event{} // release references
				bk.head++
				if bk.head == len(bk.evs) {
					bk.evs = bk.evs[:0]
					bk.head = 0
				} else {
					bk.compact()
				}
				q.n--
				q.day = b
				q.dayStart = dayStart
				if q.n < q.resizeDn && len(q.buckets) > 64 {
					q.resize(len(q.buckets) / 2)
				}
				return e
			}
		}
		// Nothing in this year: jump to the globally earliest event.
		min, found := q.earliest()
		if !found {
			panic("sim: pop on empty calendar queue")
		}
		q.dayStart = min &^ (width - 1)
		q.day = q.bucketFor(q.dayStart)
	}
}

func (q *calendarQueue) peekAt() Time {
	// Used only to decide whether to stop before `end`; a full scan is
	// acceptable because RunUntil calls it once per event anyway, and
	// the common case finds the event in the current day.
	width := q.width()
	for i := 0; i < len(q.buckets); i++ {
		bk := &q.buckets[(q.day+i)&q.mask]
		if bk.len() > 0 && bk.evs[bk.head].at < q.dayStart+Time(i)<<q.shift+width {
			return bk.evs[bk.head].at
		}
	}
	min, _ := q.earliest()
	return min
}

// earliest scans every bucket for the smallest head timestamp (MaxTime,
// false when the queue is empty).
func (q *calendarQueue) earliest() (Time, bool) {
	min, found := MaxTime, false
	for i := range q.buckets {
		bk := &q.buckets[i]
		if bk.len() > 0 && bk.evs[bk.head].at < min {
			min = bk.evs[bk.head].at
			found = true
		}
	}
	return min, found
}

func (q *calendarQueue) size() int { return q.n }

// resize rebuilds the calendar with a new bucket count and a day width
// estimated from the current event spread. Resizes are amortized-rare
// (the thresholds are geometric), so the gather-and-redistribute
// allocation here does not affect steady-state behaviour.
func (q *calendarQueue) resize(nbuckets int) {
	all := make([]event, 0, q.n)
	for i := range q.buckets {
		bk := &q.buckets[i]
		all = append(all, bk.evs[bk.head:]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].before(&all[j]) })
	width := q.width()
	if len(all) > 2 {
		span := all[len(all)-1].at - all[0].at
		if w := span / Time(len(all)); w > 0 {
			width = w
		}
	}
	start := q.dayStart
	if len(all) > 0 && all[0].at < start {
		start = all[0].at
	}
	q.init(nbuckets, width, start)
	q.n = len(all)
	for _, e := range all {
		b := q.bucketFor(e.at)
		q.buckets[b].evs = append(q.buckets[b].evs, e)
	}
}
