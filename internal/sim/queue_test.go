package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPayloadSize: a slab slot is an action and two arguments, nothing
// else — two slots to a cache line. A closure event rides in the action
// word and costs Schedule no allocation of its own.
func TestPayloadSize(t *testing.T) {
	if got := unsafe.Sizeof(payload{}); got != 32 {
		t.Errorf("payload is %d bytes, want 32", got)
	}
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	e.Schedule(1, fn)
	e.Run() // warm the queue storage
	if allocs := testing.AllocsPerRun(100, func() { e.Schedule(e.Now()+1, fn); e.Run() }); allocs != 0 || n != 102 {
		t.Errorf("scheduling a ready closure: %.1f allocs per event, %d runs; want 0 and 102", allocs, n)
	}
}

// TestQueueMatchesSortedOrder: the engine runs any random schedule in
// exactly the order the reference model (model_test.go) sorts it into.
func TestQueueMatchesSortedOrder(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		count := int(n%500) + 1
		run := func(e engineAPI) []int {
			rng := rand.New(rand.NewSource(seed))
			var order []int
			for i := 0; i < count; i++ {
				i := i
				at := Time(rng.Int63n(int64(10 * Microsecond)))
				e.Schedule(at, func() { order = append(order, i) })
			}
			e.RunUntil(MaxTime)
			return order
		}
		return slices.Equal(run(NewEngine()), run(&refEngine{}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQueueNestedAndSparse mixes a far-future event, a dense burst that
// grows the queue, and scheduling from inside an event.
func TestQueueNestedAndSparse(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(3*Second, func() { hits = append(hits, e.Now()) })
	for i := 0; i < 1000; i++ {
		at := Time(i) * 100 * Nanosecond
		e.Schedule(at, func() { hits = append(hits, e.Now()) })
	}
	// Nested scheduling from within events.
	e.Schedule(50*Microsecond, func() {
		e.After(10*Microsecond, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 1002 {
		t.Fatalf("ran %d events, want 1002", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i] < hits[i-1] {
			t.Fatalf("out of order at %d: %v then %v", i, hits[i-1], hits[i])
		}
	}
	if hits[len(hits)-1] != 3*Second {
		t.Errorf("last event at %v, want 3s", hits[len(hits)-1])
	}
}

func TestQueueRunUntilThenRun(t *testing.T) {
	e := NewEngine()
	ran := 0
	for _, at := range []Time{10, 20, 30} {
		e.Schedule(at, func() { ran++ })
	}
	e.RunUntil(20)
	if ran != 2 || e.Now() != 20 {
		t.Errorf("ran=%d now=%v, want 2/20", ran, e.Now())
	}
	e.Run()
	if ran != 3 {
		t.Errorf("ran=%d, want 3", ran)
	}
}

// BenchmarkEngine models a packet-simulation profile: a rolling horizon
// of ~1000 pending events, each rescheduling a successor.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	live := 0
	var spawn func()
	spawn = func() {
		if live < b.N {
			live++
			e.After(Time(rng.Int63n(int64(Microsecond))), spawn)
		}
	}
	for i := 0; i < 1000 && i < b.N; i++ {
		spawn()
	}
	b.ResetTimer()
	e.Run()
}

// holdAction is the classic hold model: every event that runs schedules
// one successor an exponentially distributed delay later, so the queue
// stays at the depth it was filled to.
type holdAction struct {
	e      *Engine
	delays []Time
	left   int
}

func (h *holdAction) Run(int64, int64) {
	if h.left == 0 {
		h.e.stop()
		return
	}
	h.left--
	h.e.ScheduleAction(h.e.Now()+h.delays[h.left%len(h.delays)], h, 0, 0)
}

// BenchmarkHold reports ns per hold operation (one pop plus one push)
// at a fixed number of pending events — DESIGN.md's queue table.
func BenchmarkHold(b *testing.B) {
	for _, pending := range []int{100, 1000, 65536} {
		b.Run(fmt.Sprint(pending), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			h := &holdAction{e: NewEngine(), delays: make([]Time, 1<<13), left: b.N}
			for i := range h.delays {
				h.delays[i] = Time(rng.ExpFloat64()*1000)*Nanosecond + 1
			}
			for i := 0; i < pending; i++ {
				h.e.ScheduleAction(h.delays[i%len(h.delays)], h, 0, 0)
			}
			b.ResetTimer()
			h.e.Run()
		})
	}
}
