package traffic

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// TestBorrowedGeneratorMatchesFresh is the reference check behind
// generator reuse: a generator that was drawn from — through every
// method a stream or a VLB choice uses, Read's buffered bytes included —
// released and borrowed again under a new seed yields, draw for draw,
// what rand.New(rand.NewSource(seed)) yields.
func TestBorrowedGeneratorMatchesFresh(t *testing.T) {
	var pool RandPool
	seeds := rand.New(rand.NewSource(99))
	for i := 0; i < 1200; i++ {
		rands := Rands{Pool: &pool}
		used := rands.New(seeds.Int63())
		for k := 0; k < i%97; k++ { // partial use, a different amount each round
			used.Int63()
			used.Float64()
			used.ExpFloat64()
			used.Intn(k + 1)
		}
		used.Read(make([]byte, i%7))
		rands.Release()

		seed := seeds.Int63()
		if i%3 == 0 {
			seed = int64(i) - 600 // negative, zero and small seeds too
		}
		got, want := rands.New(seed), rand.New(rand.NewSource(seed))
		if got != used {
			t.Fatalf("round %d: the released generator was not the one borrowed next", i)
		}
		for k := 0; k < 64; k++ {
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d: Int63 draw %d = %d, fresh generator %d", seed, k, a, b)
			}
			if a, b := got.Float64(), want.Float64(); a != b {
				t.Fatalf("seed %d: Float64 draw %d = %v, fresh generator %v", seed, k, a, b)
			}
			if a, b := got.ExpFloat64(), want.ExpFloat64(); a != b {
				t.Fatalf("seed %d: ExpFloat64 draw %d = %v, fresh generator %v", seed, k, a, b)
			}
		}
		rands.Release()
	}
	if len(pool.free) != 1 {
		t.Errorf("%d generators on the free list after serial reuse, want 1", len(pool.free))
	}
}

// TestNilRandsAllocates: the scenario runner and the tests pass no
// Rands and get a generator per call, as before.
func TestNilRandsAllocates(t *testing.T) {
	var none *Rands
	a, b := none.New(5), (&Rands{}).New(5)
	if a == b || a.Int63() != rand.New(rand.NewSource(5)).Int63() || a.Int63() == b.Int63() {
		t.Error("nil and pool-less Rands do not each allocate a fresh generator")
	}
}

// TestConcurrentCellsShareFreeList runs two cells at a time on one free
// list (`make race` has this package in scope for it). Both borrow
// together, simulate together and release together, so what is out at
// once in a round is the two cells' generators exactly: none may be in
// both cells, and every one comes back — the list ends as long as the
// most that were ever out together.
func TestConcurrentCellsShareFreeList(t *testing.T) {
	const rounds = 20
	var (
		pool RandPool
		mu   sync.Mutex
		live = map[*rand.Rand]bool{}
		peak int
		wg   sync.WaitGroup
		meet = make(chan struct{}) // worker 0 sends, worker 1 receives
	)
	rendezvous := [2]func(){func() { meet <- struct{}{} }, func() { <-meet }}
	type cellNet struct {
		net *netsim.Network
		h   *Harness
		g   *topology.Graph
	}
	var nets [2][rounds]cellNet // built here: meshNet may call t.Fatal
	for w := range nets {
		for r := range nets[w] {
			net, h, g := meshNet(t, 4, 4)
			nets[w][r] = cellNet{net, h, g}
		}
	}
	cell := func(worker, round int) {
		rands := Rands{Pool: &pool}
		net, h := nets[worker][round].net, nets[worker][round].h
		hosts := nets[worker][round].g.Hosts()
		rng := rands.New(int64(1000*worker + round))
		fanout := 1 + (round*(worker+2))%9
		task := ScatterGather(net, h, hosts[worker], hosts[4:4+fanout], 2e5, 10, 11, nil, rng, &rands)
		if want := fanout + 2; len(rands.out) != want { // the streams', rng and the reply generator
			t.Errorf("cell borrowed %d generators, want %d", len(rands.out), want)
		}
		mu.Lock()
		for _, r := range rands.out {
			if live[r] {
				t.Errorf("worker %d round %d: generator %p is already in a live stream", worker, round, r)
			}
			live[r] = true
		}
		mu.Unlock()
		rendezvous[worker]() // both cells hold all their generators
		mu.Lock()
		peak = max(peak, len(live))
		mu.Unlock()

		if err := task.Start(200 * sim.Microsecond); err != nil {
			t.Error(err)
		}
		net.Engine().Run()
		if h.Latency(11).N() == 0 {
			t.Errorf("worker %d round %d: no reply delivered", worker, round)
		}
		rendezvous[worker]() // neither has released yet

		mu.Lock()
		for _, r := range rands.out {
			delete(live, r)
		}
		mu.Unlock()
		rands.Release()
		rendezvous[worker]() // everything is back before the next round borrows
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				cell(w, round)
			}
		}()
	}
	wg.Wait()
	if len(live) != 0 {
		t.Errorf("%d generators still live after every cell ended", len(live))
	}
	if len(pool.free) != peak {
		t.Errorf("free list holds %d generators, peak borrowed was %d", len(pool.free), peak)
	}
	seen := map[*rand.Rand]bool{}
	for _, r := range pool.free {
		if seen[r] {
			t.Errorf("generator %p is on the free list twice", r)
		}
		seen[r] = true
	}
}
