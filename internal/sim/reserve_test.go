package sim

import (
	"fmt"
	"testing"
)

// Tests for the engine's lazy-event surface — ReserveSeq,
// ScheduleReserved, Passed — and for the clock after a stopped run.

// recorder is an Action that logs the label it was scheduled with.
type recorder struct{ log *[]string }

func (r recorder) Run(a, _ int64) { *r.log = append(*r.log, fmt.Sprint("r", a)) }

// TestRunUntilStopLeavesClock: a run cut short by stop must not jump
// the clock to end past events that are still pending, or the resumed
// run moves Now() backwards.
func TestRunUntilStopLeavesClock(t *testing.T) {
	e := NewEngine()
	var seen []Time
	e.Schedule(10, func() { seen = append(seen, e.Now()); e.stop() })
	e.Schedule(20, func() { seen = append(seen, e.Now()) })
	e.RunUntil(100)
	if e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("after stop: now %v pending %d, want 10 and 1", e.Now(), e.Pending())
	}
	before := e.Now()
	e.RunUntil(100)
	if len(seen) != 2 || seen[1] != 20 || seen[1] < before {
		t.Fatalf("resumed run saw %v after now %v", seen, before)
	}
	if e.Now() != 100 {
		t.Fatalf("completed run left now %v, want 100", e.Now())
	}
}

// TestScheduleReservedKeepsOrder: an event armed late under a reserved
// number runs exactly where an eagerly scheduled one would have —
// between the events scheduled before and after the reservation, also
// on a same-instant tie — and nothing else moves.
func TestScheduleReservedKeepsOrder(t *testing.T) {
	// script builds one schedule on e. Eagerly, r1 and r2 are ordinary
	// events; lazily they are reservations, armed from events that run
	// before their turn: r2 from an earlier instant, r1 from its own
	// instant by the lower-numbered event "a".
	script := func(t *testing.T, e *Engine, lazy bool) []string {
		var log []string
		rec := recorder{&log}
		mark := func(s string) func() { return func() { log = append(log, s) } }
		var r1, r2 uint64
		e.Schedule(50, func() {
			log = append(log, "a")
			if lazy {
				if e.Passed(50, r1) {
					t.Error("r1 passed while a lower-numbered event at its instant runs")
				}
				e.ScheduleReserved(50, r1, rec, 1, 0)
			}
		})
		if lazy {
			r1 = e.ReserveSeq()
		} else {
			e.ScheduleAction(50, rec, 1, 0)
		}
		e.Schedule(50, mark("b"))
		if lazy {
			r2 = e.ReserveSeq()
		} else {
			e.ScheduleAction(70, rec, 2, 0)
		}
		e.Schedule(70, mark("c"))
		e.Schedule(60, mark("d"))
		e.Schedule(10, func() {
			if lazy {
				e.ScheduleReserved(70, r2, rec, 2, 0)
			}
		})
		// Scheduled later for r1's instant: a higher number, so it must
		// not overtake r1 however late r1 is armed.
		e.Schedule(5, func() { e.Schedule(50, mark("e")) })
		e.Run()
		return log
	}
	eager, lazy := NewEngine(), NewEngine()
	want := script(t, eager, false)
	if fmt.Sprint(want) != "[a r1 b e d r2 c]" {
		t.Fatalf("eager reference ran %v", want)
	}
	if got := script(t, lazy, true); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lazy run %v, eager run %v", got, want)
	}
	if lazy.Processed() != eager.Processed() {
		t.Fatalf("lazy run processed %d events, eager %d", lazy.Processed(), eager.Processed())
	}
}

// TestPassedInsideEvents: within a run, Passed compares against the
// running event's own (time, number).
func TestPassedInsideEvents(t *testing.T) {
	e := NewEngine()
	var r uint64
	check := func(label string, at Time, want bool) {
		t.Helper()
		if got := e.Passed(at, r); got != want {
			t.Errorf("%s: Passed(%v, r) = %v, want %v", label, at, got, want)
		}
	}
	e.Schedule(50, func() { // lower number than r
		check("earlier instant", 49, true)
		check("tie, reserved later than running event", 50, false)
		check("later instant", 51, false)
	})
	r = e.ReserveSeq()
	e.Schedule(50, func() { // higher number than r
		check("tie, reserved earlier than running event", 50, true)
		check("later instant", 51, false)
	})
	e.Schedule(40, func() { check("before the instant", 50, false) })
	e.Run()
	if e.Processed() != 3 {
		t.Fatalf("processed %d events, want 3 (a reservation is not an event)", e.Processed())
	}
}

// TestPassedBetweenRuns: a RunUntil that was not stopped has run
// everything scheduled so far for <= end; a number taken afterwards for
// exactly end has not had its turn.
func TestPassedBetweenRuns(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	r := e.ReserveSeq()
	if e.Passed(10, r) {
		t.Fatal("passed before any run")
	}
	e.RunUntil(100)
	for _, tc := range []struct {
		at   Time
		want bool
	}{{10, true}, {100, true}, {101, false}} {
		if got := e.Passed(tc.at, r); got != tc.want {
			t.Errorf("after RunUntil(100): Passed(%v, early) = %v, want %v", tc.at, got, tc.want)
		}
	}
	late := e.ReserveSeq()
	if e.Passed(100, late) {
		t.Error("a number reserved after the run passed at the run's end instant")
	}
	if !e.Passed(99, late) {
		t.Error("an instant before the run's end did not pass")
	}
	// The late reservation is still schedulable at end, and runs.
	ran := false
	e.ScheduleReserved(100, late, funcAction(func() { ran = true }), 0, 0)
	e.RunUntil(100)
	if !ran {
		t.Error("event armed at the previous run's end instant never ran")
	}
	// Run drains the queue: every reservation made before it passes.
	r2 := e.ReserveSeq()
	e.Schedule(500, func() {})
	e.Run()
	if !e.Passed(500, r2) || !e.Passed(1<<40, r2) {
		t.Error("reservation not passed after Run drained the queue")
	}
}

// TestPassedStoppedRun: stop freezes the frontier at the last event
// processed, not at the RunUntil bound.
func TestPassedStoppedRun(t *testing.T) {
	e := NewEngine()
	r := e.ReserveSeq()
	e.Schedule(10, func() { e.stop() })
	e.Schedule(60, func() {})
	e.RunUntil(100)
	if !e.Passed(9, r) {
		t.Error("instant before the stopping event did not pass")
	}
	if e.Passed(50, r) {
		t.Error("instant after the stopping event passed although the run stopped before it")
	}
	e.ScheduleReserved(50, r, funcAction(func() {
		if e.Now() != 50 {
			t.Errorf("reserved event ran at %v, want 50", e.Now())
		}
	}), 0, 0)
	e.RunUntil(100)
	if !e.Passed(50, r) || e.Processed() != 3 {
		t.Errorf("after resume: passed %v, processed %d", e.Passed(50, r), e.Processed())
	}
}

func TestScheduleReservedAfterItsTurnPanics(t *testing.T) {
	e := NewEngine()
	r := e.ReserveSeq()
	e.Schedule(10, func() {})
	e.RunUntil(20)
	defer func() {
		if recover() == nil {
			t.Error("arming a reservation whose turn has passed did not panic")
		}
	}()
	e.ScheduleReserved(15, r, funcAction(func() {}), 0, 0)
}
