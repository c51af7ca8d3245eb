package traffic

import (
	"math/rand"
	"sync"
)

// RandPool is a free list of released stream generators, shared by
// simulations that run one after another or side by side. A math/rand
// source is 4.9 KB of state, most of what a short cell allocates, and
// Seed leaves a used generator exactly where
// rand.New(rand.NewSource(seed)) starts. spare is a released Rands'
// emptied list of what it handed out, for the next Rands to reuse. The
// zero value is ready.
type RandPool struct {
	mu    sync.Mutex
	free  []*rand.Rand
	spare []*rand.Rand
}

// Rands hands one simulation its generators and remembers them, so the
// simulation can give them all back when it ends. A nil *Rands, or one
// without a Pool, allocates every generator.
type Rands struct {
	Pool *RandPool
	out  []*rand.Rand
}

// New returns a generator seeded with seed, a released one if the pool
// has one.
func (r *Rands) New(seed int64) *rand.Rand {
	if r == nil || r.Pool == nil {
		return rand.New(rand.NewSource(seed))
	}
	var g *rand.Rand
	p := r.Pool
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		g, p.free = p.free[n-1], p.free[:n-1]
	}
	if r.out == nil {
		r.out, p.spare = p.spare, nil
	}
	p.mu.Unlock()
	if g == nil {
		g = rand.New(rand.NewSource(seed))
	} else {
		g.Seed(seed)
	}
	if r.out == nil {
		r.out = make([]*rand.Rand, 0, 64) // a simulation takes tens
	}
	r.out = append(r.out, g)
	return g
}

// Release returns every generator New handed out to the pool; nothing
// may draw from them afterwards.
func (r *Rands) Release() {
	if p := r.Pool; p != nil {
		p.mu.Lock()
		p.free = append(p.free, r.out...)
		if p.spare == nil {
			p.spare = r.out[:0]
		}
		p.mu.Unlock()
		r.out = nil
	}
}
