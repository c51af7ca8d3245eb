package sim

import "testing"

// chain is an event that reschedules itself one picosecond later until
// it has run limit times, closing done (if set) in its closeAt-th run.
type chain struct {
	e              *Engine
	n, limit       uint64
	closeAt        uint64
	done           chan struct{}
	closedAfterRan uint64
}

func (c *chain) Run(int64, int64) {
	c.n++
	if c.n == c.closeAt {
		close(c.done)
		c.closedAfterRan = c.e.Processed()
	}
	if c.n < c.limit {
		c.e.ScheduleAction(c.e.Now()+1, c, 0, 0)
	}
}

// TestStopOnCountsEvents: once done closes, a run processes at most
// stopPoll more events, however many it still has to do, and then
// stands exactly as a stopped run does.
func TestStopOnCountsEvents(t *testing.T) {
	for _, k := range []uint64{1, 2, 100, stopPoll - 1, stopPoll, stopPoll + 1, 3*stopPoll + 7} {
		e := NewEngine()
		r := e.ReserveSeq()
		c := &chain{e: e, limit: k + 10*stopPoll, closeAt: k, done: make(chan struct{})}
		e.StopOn(c.done)
		e.ScheduleAction(0, c, 0, 0)
		const end = 1 << 40
		e.RunUntil(end)
		after := e.Processed() - c.closedAfterRan
		if c.closedAfterRan != k || after > stopPoll || e.Pending() != 1 {
			t.Fatalf("closed in event %d: %d events after it, %d pending; want at most %d after and 1 pending",
				k, after, e.Pending(), stopPoll)
		}
		// Stopped, not finished: the clock and the frontier stay at the
		// last event processed, as TestPassedStoppedRun pins for stop.
		last := e.Now()
		if last != Time(e.Processed()-1) {
			t.Fatalf("closed in event %d: clock at %v after %d events", k, last, e.Processed())
		}
		if !e.Passed(last, r) || e.Passed(last+1, r) {
			t.Errorf("closed in event %d: Passed(%v) %v, Passed(%v) %v; want true, false",
				k, last, e.Passed(last, r), last+1, e.Passed(last+1, r))
		}
		// The channel stays closed: a resumed run stops at once.
		e.RunUntil(end)
		if e.Now() != last || e.Pending() != 1 {
			t.Errorf("closed in event %d: resumed run moved the clock %v -> %v", k, last, e.Now())
		}
	}
}

// TestStopOnClosedNilAndReset: a closed channel stops a fresh engine
// before its first event; a nil one never stops a run; Reset detaches
// the channel.
func TestStopOnClosedNilAndReset(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	const events = 3 * stopPoll
	e := NewEngine()
	e.StopOn(closed)
	c := &chain{e: e, limit: events}
	e.ScheduleAction(0, c, 0, 0)
	e.Run()
	if e.Processed() != 0 || e.Pending() != 1 {
		t.Fatalf("closed channel: %d events processed, %d pending; want 0 and 1", e.Processed(), e.Pending())
	}

	e.StopOn(nil)
	e.Run()
	if e.Processed() != events || e.Pending() != 0 {
		t.Fatalf("nil channel: %d events processed, %d pending; want %d and 0", e.Processed(), e.Pending(), events)
	}

	e.StopOn(closed)
	e.Reset()
	c = &chain{e: e, limit: events}
	e.ScheduleAction(0, c, 0, 0)
	e.Run()
	if e.Processed() != events {
		t.Fatalf("after Reset: %d events processed, want %d", e.Processed(), events)
	}
}
