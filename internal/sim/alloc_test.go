package sim

import (
	"testing"
)

// countAction is a trivial Action for the hot-path tests.
type countAction struct {
	ran  int
	eng  *Engine
	hops int64
}

func (c *countAction) Run(a, b int64) {
	c.ran++
	if a > 0 {
		// Re-arm: model a chain of typed events, the way the packet
		// simulator's transmit/arrive events re-schedule each other.
		c.eng.ScheduleAction(c.eng.Now()+Nanosecond, c, a-1, b)
	}
}

// TestScheduleActionZeroAllocs locks in the tentpole invariant: once
// the queue's backing storage is warm, scheduling and running typed
// events allocates nothing — no closure, no interface boxing, no
// regrown heap or slab.
func TestScheduleActionZeroAllocs(t *testing.T) {
	eng := NewEngine()
	act := &countAction{eng: eng}
	// Warm the queue storage.
	eng.ScheduleAction(eng.Now()+Nanosecond, act, 64, 0)
	eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		eng.ScheduleAction(eng.Now()+Nanosecond, act, 16, 0)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 17-event run, want 0", allocs)
	}
}

// TestActionClosureInterleaving checks that typed and closure events
// scheduled for the same instant still run in schedule order.
func TestActionClosureInterleaving(t *testing.T) {
	eng := NewEngine()
	var order []int
	rec := &recordAction{order: &order}
	at := Time(5 * Nanosecond)
	eng.Schedule(at, func() { order = append(order, 0) })
	eng.ScheduleAction(at, rec, 1, 0)
	eng.Schedule(at, func() { order = append(order, 2) })
	eng.ScheduleAction(at, rec, 3, 0)
	eng.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("order = %v, want [0 1 2 3]", order)
		}
	}
}

type recordAction struct{ order *[]int }

func (r *recordAction) Run(a, b int64) { *r.order = append(*r.order, int(a)) }

// TestAfterActionNegativeDelayPanics mirrors After's contract.
func TestAfterActionNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	NewEngine().AfterAction(-1, &countAction{}, 0, 0)
}

func benchSchedule(b *testing.B, eng *Engine, typed bool) {
	b.ReportAllocs()
	act := &countAction{eng: eng}
	n := 0
	fn := func() { n++ }
	for i := 0; i < b.N; i++ {
		if typed {
			eng.ScheduleAction(eng.Now()+Nanosecond, act, 0, 0)
		} else {
			eng.Schedule(eng.Now()+Nanosecond, fn)
		}
		if eng.Pending() >= 1024 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkScheduleAction(b *testing.B)  { benchSchedule(b, NewEngine(), true) }
func BenchmarkScheduleClosure(b *testing.B) { benchSchedule(b, NewEngine(), false) }
