package sim

import (
	"fmt"
	"time"
)

// Action is the typed, allocation-free form of an event callback.
// Schedule's func() form allocates a closure per event; ScheduleAction
// instead stores an interface pointer plus two integer arguments
// directly in the event's payload, so long-lived handlers (or pooled
// records that implement Action themselves) schedule without touching
// the heap. The packet simulator's per-hop events use this path.
type Action interface {
	// Run executes the event with the two integer arguments it was
	// scheduled with.
	Run(a, b int64)
}

// Telemetry summarizes a run: how much work the engine did and how fast
// the wall clock saw it go.
type Telemetry struct {
	// Events is the number of events processed so far.
	Events uint64
	// PeakPending is the high-water mark of the event queue.
	PeakPending int
	// Wall is the real time spent inside Run/RunUntil.
	Wall time.Duration
}

// EventsPerSecond returns the wall-clock event rate (0 before any run).
func (t Telemetry) EventsPerSecond() float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(t.Events) / t.Wall.Seconds()
}

// Engine is a single-threaded discrete-event simulator.
//
// Events scheduled for the same instant run in the order they were
// scheduled, which makes every simulation deterministic. An Engine is not
// safe for concurrent use; run independent simulations in independent
// Engines (they share nothing).
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	stopped bool
	ran     uint64
	wall    time.Duration
	done    <-chan struct{}

	// passAt/passSeq are the run frontier Passed compares against: every
	// event that sorts before (passAt, passSeq) has had its turn. The run
	// loop moves it to each event it pops, a RunUntil that is not stopped
	// moves it past everything scheduled so far for <= end.
	passAt  Time
	passSeq uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns e to the state NewEngine builds — clock at zero,
// nothing pending, no counts, no StopOn — but keeps the queue's arrays,
// so a run no longer than the last one on this engine schedules without
// growing them. Events still pending are discarded unrun.
func (e *Engine) Reset() {
	q := &e.queue
	clear(q.slots) // release the discarded actions to the GC
	*e = Engine{queue: eventHeap{keys: q.keys[:0], slots: q.slots[:0], free: q.free[:0]}}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have run so far.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.queue.size() }

// stopPoll is how many events run between two looks at StopOn's channel.
const stopPoll = 1 << 12

// StopOn stops every later run within stopPoll events of done closing,
// before its first event if done is already closed (see RunUntil). A nil
// done, the default, never stops a run and costs one nil test per event.
func (e *Engine) StopOn(done <-chan struct{}) { e.done = done }

// Telemetry reports the run so far: events processed, the queue's
// high-water mark, and wall-clock time spent in Run/RunUntil.
func (e *Engine) Telemetry() Telemetry {
	return Telemetry{Events: e.ran, PeakPending: e.queue.peak(), Wall: e.wall}
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
//
// Schedule is the setup/test-convenience form, deprecated on hot
// paths: a func literal that captures anything is a heap-allocated
// closure (typically one allocation per event) before Schedule sees
// it. Code that schedules per packet or per hop should implement Action
// once and use ScheduleAction, which stores an interface pointer plus
// two integers in the event's payload and allocates nothing — that is
// the invariant TestScheduleActionZeroAllocs pins.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.queue.push(at, e.seq, payload{act: funcAction(fn)})
}

// ScheduleAction runs act.Run(a, b) at absolute virtual time at — the
// zero-allocation form of Schedule (see Action). Ties with closure
// events at the same instant break by schedule order, exactly as for
// Schedule.
func (e *Engine) ScheduleAction(at Time, act Action, a, b int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.queue.push(at, e.seq, payload{act: act, a: a, b: b})
}

// ReserveSeq takes the schedule-order number the next Schedule call
// would have been given, without scheduling anything. A caller that can
// apply an event's effect lazily reserves the event's place in the
// total order here, asks Passed whether that place has come up, and
// falls back to ScheduleReserved when the event is needed after all —
// every other event keeps the (time, order) it would have had if the
// reserved one had been scheduled eagerly.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleReserved is ScheduleAction under a number from ReserveSeq:
// the event runs at (at, seq), exactly where an event scheduled at the
// time of the reservation would. Each reserved number may be scheduled
// at most once, and only while Passed(at, seq) is false.
func (e *Engine) ScheduleReserved(at Time, seq uint64, act Action, a, b int64) {
	if e.Passed(at, seq) {
		panic(fmt.Sprintf("sim: schedule reserved (%v, %d) after its turn passed (now %v)", at, seq, e.now))
	}
	e.queue.push(at, seq, payload{act: act, a: a, b: b})
}

// Passed reports whether an event scheduled for instant at under
// schedule-order number seq would already have run. Inside an event it
// compares (at, seq) against the running event's own place, so a tie on
// the instant is decided by schedule order, as the queue would decide
// it. Between runs, everything scheduled before a RunUntil(end) that
// returned unstopped has passed if its instant is <= end.
func (e *Engine) Passed(at Time, seq uint64) bool {
	return at < e.passAt || (at == e.passAt && seq < e.passSeq)
}

// After runs fn delay after the current time. Like Schedule, the
// closure form allocates; prefer AfterAction on per-packet paths.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// AfterAction runs act.Run(a, b) delay after the current time.
func (e *Engine) AfterAction(delay Time, act Action, a, b int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleAction(e.now+delay, act, a, b)
}

// stop halts the run loop after the current event returns.
func (e *Engine) stop() { e.stopped = true }

// Run processes events until the queue is empty or the run is stopped.
func (e *Engine) Run() {
	e.RunUntil(MaxTime)
}

// RunUntil processes events with timestamps <= end, then advances the
// clock to end (if it is later than the last event). Events scheduled at
// exactly end are processed. A run stopped by StopOn leaves the clock at
// the last event it processed: events at or before end may still be
// pending, and a resumed run must not see time move backwards.
func (e *Engine) RunUntil(end Time) {
	e.stopped = false
	start := time.Now()
	for {
		if e.queue.hole != 0 {
			// The last event scheduled nothing (or runs the engine itself,
			// or panicked into a recover): it has had its turn.
			e.queue.fill()
		}
		if e.done != nil && e.ran%stopPoll == 0 {
			select {
			case <-e.done:
				e.stop()
			default:
			}
		}
		if e.stopped || e.queue.size() == 0 || e.queue.peekAt() > end {
			break
		}
		k, ev := e.queue.take()
		e.now = k.at
		e.passAt, e.passSeq = k.at, k.seq
		e.ran++
		ev.act.Run(ev.a, ev.b)
	}
	e.wall += time.Since(start)
	if !e.stopped {
		e.ranThrough(end)
	}
}

// ranThrough records that every event scheduled so far for an instant
// <= end has run: the clock moves to end (Run's MaxTime is not an
// instant) and the frontier past all of them. Anything scheduled later
// for exactly end gets a higher order number and has not passed.
func (e *Engine) ranThrough(end Time) {
	if e.now < end && end < MaxTime {
		e.now = end
	}
	e.passAt, e.passSeq = end, e.seq+1
}
