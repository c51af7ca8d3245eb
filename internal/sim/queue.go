package sim

// The engine's one pending-event store: a 4-ary min-heap of pointer-free
// keys ordered by (at, seq), with what each event runs kept beside it in
// a slot slab. Sifting moves 24-byte keys that hold no pointers — no
// write barriers, and the collector never scans the heap's backing
// array — while a payload is written once on push and read once when the
// event is taken. The arrays only ever grow to the run's peak pending
// count and are reused from there on, so a warm queue allocates nothing.

// key is an event's place in the total order plus the slab slot that
// holds its payload.
type key struct {
	at   Time
	seq  uint64 // schedule order; breaks ties deterministically
	slot int32
}

func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// payload is what an event runs: an action and its two arguments, 32
// bytes. A Schedule closure rides in act as a funcAction.
type payload struct {
	act  Action
	a, b int64
}

// funcAction is a closure as an Action. A func value is pointer-shaped,
// so storing one in the interface allocates nothing.
type funcAction func()

func (f funcAction) Run(int64, int64) { f() }

// heapArity is the heap's fan-out: four children per node halve the
// depth a pop sifts through against a binary heap, and a node's
// children share two cache lines. siftDown's tournament over a full node
// is written out for exactly four.
const heapArity = 4

type eventHeap struct {
	keys  []key
	slots []payload
	free  []int32 // slots whose event has run, reused before the slab grows

	// hole is 1 while the event take returned is running: its key is
	// still keys[0] and its slot still its own, but it is no longer
	// pending. Nothing can be pushed ahead of it — an event is scheduled
	// at or after the one that schedules it — so the first push replaces
	// it with one sift-down; fill removes it if no push came.
	hole int
}

func (q *eventHeap) size() int { return len(q.keys) - q.hole }

// peak is the most events ever pending at once: the slab only grows when
// every slot is in use (the running event's is, until fill frees it).
func (q *eventHeap) peak() int { return len(q.slots) }

// peekAt returns the earliest event's timestamp; callers check size
// first, with no hole open.
func (q *eventHeap) peekAt() Time { return q.keys[0].at }

func (q *eventHeap) push(at Time, seq uint64, p payload) {
	if q.hole != 0 {
		q.hole = 0
		slot := q.keys[0].slot
		q.slots[slot] = p
		q.siftDown(key{at: at, seq: seq, slot: slot})
		return
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = p
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, p)
	}
	k := key{at: at, seq: seq, slot: slot}
	q.keys = append(q.keys, k)
	// Sift up: move parents down into the hole until k fits.
	h := q.keys
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// take returns the earliest event and leaves its key at the root as the
// hole; callers check size first, and fill if the event leaves it open.
func (q *eventHeap) take() (key, payload) {
	top := q.keys[0]
	q.hole = 1
	return top, q.slots[top.slot]
}

// fill closes an open hole: the last key takes the root's place and the
// slot goes back on the free list.
func (q *eventHeap) fill() {
	q.hole = 0
	h := q.keys
	slot := h[0].slot
	q.slots[slot] = payload{} // release the action to the GC
	q.free = append(q.free, slot)
	n := len(h) - 1
	q.keys = h[:n]
	if n > 0 {
		q.siftDown(h[n])
	}
}

// siftDown puts k where it belongs in the heap, starting from a vacant
// root: the least child moves up until k fits.
func (q *eventHeap) siftDown(k key) {
	h := q.keys
	n := len(h)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		least := first
		if first+heapArity <= n {
			// A full node: two independent comparisons, then one, each
			// taken as a 0/1 value and the winner chosen by a mask, so
			// which child is least — a coin flip on random event times —
			// is never a branch to mispredict.
			c := h[first : first+heapArity : first+heapArity]
			a := b2i(c[1].before(c[0]))
			b := 2 + b2i(c[3].before(c[2]))
			m := -b2i(c[b&3].before(c[a&3]))
			a ^= (a ^ b) & m
			least = first + a
		} else {
			for c := first + 1; c < n; c++ {
				if h[c].before(h[least]) {
					least = c
				}
			}
		}
		if !h[least].before(k) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = k
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc, not
// a jump.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
