package sim

// The engine's one pending-event store: a 4-ary min-heap of pointer-free
// keys ordered by (at, seq), with what each event runs kept beside it in
// a slot slab. Sifting moves 24-byte keys that hold no pointers — no
// write barriers, and the collector never scans the heap's backing
// array — while a payload is written once on push and read once on pop.
// The arrays only ever grow to the run's peak pending count and are
// reused from there on, so a warm queue allocates nothing.

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

// payload is what an event runs: an action and its two arguments — 32
// bytes, two slots to a cache line. A Schedule closure rides in act as a
// funcAction.
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
// children share two cache lines. pop's tournament over a full node is
// written out for exactly four.
const heapArity = 4

type eventHeap struct {
	keys  []key
	slots []payload
	free  []int32 // slots whose event has popped, reused before the slab grows
}

func (q *eventHeap) size() int { return len(q.keys) }

// peak is the most events ever pending at once: the slab only grows when
// every slot is in use.
func (q *eventHeap) peak() int { return len(q.slots) }

// peekAt returns the earliest event's timestamp; callers check size
// first.
func (q *eventHeap) peekAt() Time { return q.keys[0].at }

func (q *eventHeap) push(at Time, seq uint64, p payload) {
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

// pop removes and returns the earliest event; callers check size first.
func (q *eventHeap) pop() (key, payload) {
	h := q.keys
	top := h[0]
	p := q.slots[top.slot]
	q.slots[top.slot] = payload{} // release closure/action references to the GC
	q.free = append(q.free, top.slot)
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.keys = h
	// Sift down: move the least child up into the hole until last fits.
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		least := first
		if first+heapArity <= n {
			// A full node: two independent comparisons, then one.
			c := h[first : first+heapArity : first+heapArity]
			a, b := 0, 2
			if c[1].before(c[0]) {
				a = 1
			}
			if c[3].before(c[2]) {
				b = 3
			}
			if c[b].before(c[a]) {
				a = b
			}
			least = first + a
		} else {
			for c := first + 1; c < n; c++ {
				if h[c].before(h[least]) {
					least = c
				}
			}
		}
		if !h[least].before(last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		h[i] = last
	}
	return top, p
}
