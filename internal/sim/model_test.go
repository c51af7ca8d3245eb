package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The engine's order contract, checked differentially: random programs
// over the whole scheduling surface run on an Engine and on refEngine,
// a reference model that keeps its pending events in a plain slice and
// re-sorts it before every pop, and must produce the same log.

// engineAPI is the surface the programs drive; *Engine and *refEngine
// both implement it.
type engineAPI interface {
	Now() Time
	Pending() int
	Telemetry() Telemetry
	Schedule(at Time, fn func())
	ScheduleAction(at Time, act Action, a, b int64)
	ReserveSeq() uint64
	ScheduleReserved(at Time, seq uint64, act Action, a, b int64)
	Passed(at Time, seq uint64) bool
	stop()
	RunUntil(end Time)
}

// refEvent is one pending event of the reference model.
type refEvent struct {
	at  Time
	seq uint64
	run func()
}

// refEngine is the specification the queue is held to: events run in
// (at, seq) order, found by sorting.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
	stopped bool
	ran     uint64
	peak    int // most events ever pending at once

	// last is the (at, seq) of the event that ran most recently; a
	// RunUntil that was not stopped also records, in doneEnd/doneSeq, that
	// everything numbered so far and due by its end has had its turn.
	last             refEvent
	doneEnd          Time
	doneSeq          uint64
	ranOne, finished bool
}

func (m *refEngine) Now() Time    { return m.now }
func (m *refEngine) Pending() int { return len(m.pending) }
func (m *refEngine) stop()        { m.stopped = true }

// Telemetry models the two fields that do not depend on the wall clock.
func (m *refEngine) Telemetry() Telemetry {
	return Telemetry{Events: m.ran, PeakPending: m.peak}
}

// add makes ev pending. The running event is not: it left pending before
// it ran, whatever it goes on to schedule.
func (m *refEngine) add(ev refEvent) {
	m.pending = append(m.pending, ev)
	m.peak = max(m.peak, len(m.pending))
}

func (m *refEngine) Schedule(at Time, fn func()) {
	m.seq++
	m.add(refEvent{at, m.seq, fn})
}

func (m *refEngine) ScheduleAction(at Time, act Action, a, b int64) {
	m.Schedule(at, func() { act.Run(a, b) })
}

func (m *refEngine) ReserveSeq() uint64 {
	m.seq++
	return m.seq
}

func (m *refEngine) ScheduleReserved(at Time, seq uint64, act Action, a, b int64) {
	m.add(refEvent{at, seq, func() { act.Run(a, b) }})
}

func (m *refEngine) Passed(at Time, seq uint64) bool {
	if m.ranOne && (at < m.last.at || (at == m.last.at && seq < m.last.seq)) {
		return true
	}
	return m.finished && at <= m.doneEnd && seq <= m.doneSeq
}

func (m *refEngine) RunUntil(end Time) {
	m.stopped = false
	for !m.stopped {
		sort.Slice(m.pending, func(i, j int) bool {
			a, b := m.pending[i], m.pending[j]
			return a.at < b.at || (a.at == b.at && a.seq < b.seq)
		})
		if len(m.pending) == 0 || m.pending[0].at > end {
			break
		}
		ev := m.pending[0]
		m.pending = slices.Delete(m.pending, 0, 1)
		m.now, m.last, m.ranOne = ev.at, ev, true
		m.ran++
		ev.run()
	}
	if !m.stopped {
		if m.now < end && end < MaxTime {
			m.now = end
		}
		m.doneEnd, m.doneSeq, m.finished = end, m.seq, true
	}
}

// program interprets a byte string as scheduling operations against one
// engine, logging everything observable: which event ran when and what
// Pending and Telemetry read inside it — before and after whatever it
// schedules, so an event's own place in the queue while it runs is part
// of the contract — every Passed answer, and the clock and queue depth
// after every run.
type program struct {
	e    engineAPI
	log  []string
	ids  int64
	open []reservation // reserved, not yet armed; oldest first
}

type reservation struct {
	at  Time
	seq uint64
	id  int64
}

// Event behaviours (the b argument of program.Run): what the event does
// to the queue while it runs. The last three carry a delay byte d < 64
// (behaviour = base + d).
const (
	behavePlain    = iota             // schedules nothing
	behaveStop                        // schedules nothing and stops the run
	behaveSpawn                       // one child delay(d) later, then arms the oldest open reservation
	behaveBurst    = behaveSpawn + 64 // 2 + d%4 children from delay(d) on, arming after the first
	behaveArmFirst = behaveBurst + 64 // arms the oldest open reservation first, then one child
)

const (
	opClosure = iota
	opAction
	opReserve
	opArm
	opStopper
	opSpawner
	opRunUntil
	opBurster
	opArmer
	numOps
)

// delay spreads one byte over 0 .. 15<<12 ps so programs mix exact ties
// with gaps of several magnitudes.
func delay(arg byte) Time { return Time(arg%16) << (4 * (arg / 16 % 4)) }

func (p *program) id() int64 {
	p.ids++
	return p.ids
}

// Run is the body of every event the program schedules.
func (p *program) Run(id, behaviour int64) {
	p.log = append(p.log, fmt.Sprintf("run %d at %d, %s", id, p.e.Now(), p.depth()))
	child := func(d int64) { p.e.ScheduleAction(p.e.Now()+delay(byte(d)), p, p.id(), behavePlain) }
	switch {
	case behaviour == behavePlain:
		return
	case behaviour == behaveStop:
		p.e.stop()
	case behaviour < behaveBurst:
		child(behaviour - behaveSpawn)
		p.arm()
	case behaviour < behaveArmFirst:
		d := behaviour - behaveBurst
		child(d)
		p.arm()
		for i := int64(1); i < 2+d%4; i++ {
			child(d + i)
		}
	default:
		p.arm()
		child(behaviour - behaveArmFirst)
	}
	p.log = append(p.log, "  then "+p.depth())
}

// depth reads the queue the way a handler can.
func (p *program) depth() string {
	t := p.e.Telemetry()
	return fmt.Sprintf("%d pending, peak %d, %d events", p.e.Pending(), t.PeakPending, t.Events)
}

// arm turns the oldest open reservation into a real event unless its
// turn has passed.
func (p *program) arm() {
	if len(p.open) == 0 {
		return
	}
	r := p.open[0]
	p.open = p.open[1:]
	passed := p.e.Passed(r.at, r.seq)
	p.log = append(p.log, fmt.Sprintf("reservation %d passed=%v", r.id, passed))
	if !passed {
		p.e.ScheduleReserved(r.at, r.seq, p, r.id, behavePlain)
	}
}

func (p *program) runUntil(end Time) {
	p.e.RunUntil(end)
	p.log = append(p.log, fmt.Sprintf("ran until %d: now %d, %s", end, p.e.Now(), p.depth()))
}

// exec runs prog (two bytes per operation) and then drains the queue.
func exec(e engineAPI, prog []byte) []string {
	p := &program{e: e}
	for ; len(prog) >= 2; prog = prog[2:] {
		op, arg := prog[0]%numOps, prog[1]
		at := e.Now() + delay(arg)
		switch op {
		case opClosure:
			id := p.id()
			e.Schedule(at, func() { p.Run(id, behavePlain) })
		case opAction:
			e.ScheduleAction(at, p, p.id(), behavePlain)
		case opReserve:
			p.open = append(p.open, reservation{at, e.ReserveSeq(), p.id()})
		case opArm:
			p.arm()
		case opStopper:
			e.ScheduleAction(at, p, p.id(), behaveStop)
		case opSpawner:
			e.ScheduleAction(at, p, p.id(), behaveSpawn+int64(arg/4))
		case opRunUntil:
			p.runUntil(at)
		case opBurster:
			e.ScheduleAction(at, p, p.id(), behaveBurst+int64(arg/4))
		case opArmer:
			e.ScheduleAction(at, p, p.id(), behaveArmFirst+int64(arg/4))
		}
	}
	for e.Pending() > 0 { // a stopper ends a run early; each run pops at least it
		p.runUntil(MaxTime)
	}
	return p.log
}

// checkAgainstModel runs prog on the engine and on the reference model
// and fails on the first log line that differs.
func checkAgainstModel(t *testing.T, prog []byte) {
	t.Helper()
	// The model re-sorts per pop; bound what the fuzzer can make it sort.
	prog = prog[:min(len(prog), 2*maxOps)]
	got, want := exec(NewEngine(), prog), exec(&refEngine{}, prog)
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("program %x: logs differ from line %d on:\nengine %q\nmodel  %q",
		prog, i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
}

// maxOps bounds a program's length in operations.
const maxOps = 300

// randomProgram draws ops operations.
func randomProgram(rng *rand.Rand, ops int) []byte {
	prog := make([]byte, 2*ops)
	rng.Read(prog)
	return prog
}

// TestEngineMatchesReferenceModel: random programs of Schedule,
// ScheduleAction, ReserveSeq, ScheduleReserved, stop and RunUntil —
// events scheduling events and arming reservations from inside the loop
// included — log the same on the engine as on the sort-based model.
func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		checkAgainstModel(t, randomProgram(rng, 1+rng.Intn(maxOps)))
	}
}

// holePrograms exercise, one each, what an event can do with its own
// place in the queue while it runs — the root stays where it is until
// the event's first push replaces it or its return removes it.
var holePrograms = [][]byte{
	// Handlers that schedule nothing, one event and several, over a queue
	// deep enough for the replacement to sift down.
	{opAction, 0x35, opAction, 0x12, opClosure, 0x12, opSpawner, 0x08, opBurster, 0x0c, opBurster, 0x47,
		opAction, 0x22, opSpawner, 0xfc, opAction, 0x31, opClosure, 0x00, opRunUntil, 0x3f},
	// A child due at the running event's own instant: the replacement
	// ties with the hole and stays at the root.
	{opSpawner, 0x00, opAction, 0x00, opBurster, 0x00, opAction, 0x01},
	// ScheduleReserved into the hole: from an earlier instant (the event
	// at 0 arms the reservation for 80), on a same-instant tie (the event
	// at 5 arms the one reserved for 5 after it was scheduled), and too
	// late (the event at 64 finds the one for 6 passed).
	{opReserve, 0x15, opArmer, 0x05, opReserve, 0x05, opReserve, 0x06, opArmer, 0x10, opArmer, 0x14,
		opAction, 0x25, opAction, 0x03},
	// stop inside a handler that pushed nothing, as the last event and
	// with others left; the resumed run starts from a closed hole.
	{opStopper, 0x03, opAction, 0x03, opStopper, 0x03, opSpawner, 0x13, opStopper, 0x21},
	// RunUntil breaking on a later event, on an empty queue, and at the
	// instant of the next event; scheduling between the runs.
	{opSpawner, 0x45, opAction, 0x21, opRunUntil, 0x11, opAction, 0x00, opRunUntil, 0x00,
		opRunUntil, 0x21, opBurster, 0x09, opRunUntil, 0x3f, opRunUntil, 0x3f},
	// One event alone: the hole is the whole queue.
	{opBurster, 0x1f},
	{opStopper, 0x00},
}

// TestEngineHoleMatchesReferenceModel runs the corpus above as a plain
// test, so `go test` holds the engine to it without the fuzzer.
func TestEngineHoleMatchesReferenceModel(t *testing.T) {
	for _, prog := range holePrograms {
		checkAgainstModel(t, prog)
	}
}

// FuzzEngineOrder is the same check under the native fuzzer, seeded
// with programs from the generator above and with holePrograms (`make
// verify` runs it for ten seconds).
func FuzzEngineOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, ops := range []int{1, 8, 40, 200} {
		f.Add(randomProgram(rng, ops))
	}
	for _, prog := range holePrograms {
		f.Add(prog)
	}
	f.Fuzz(checkAgainstModel)
}

// TestRunInsideEvent: an event that drives the engine itself has had its
// turn — the inner run must not find it at the head of the queue — and
// the outer run carries on after it.
func TestRunInsideEvent(t *testing.T) {
	e := NewEngine()
	var log []string
	mark := func(s string) func() { return func() { log = append(log, s) } }
	e.Schedule(10, func() {
		log = append(log, "outer")
		e.RunUntil(25)
		log = append(log, fmt.Sprint("back with ", e.Pending(), " pending"))
		e.Schedule(26, mark("late"))
	})
	e.Schedule(20, mark("a"))
	e.Schedule(30, mark("b"))
	e.Run()
	if got := fmt.Sprint(log); got != "[outer a back with 1 pending late b]" || e.Processed() != 4 {
		t.Errorf("ran %v, %d events", got, e.Processed())
	}
}

// TestPanicInsideEventLeavesQueueUsable: a handler's panic that the
// caller recovers from costs that one event, nothing else.
func TestPanicInsideEventLeavesQueueUsable(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { panic("handler failed") })
	e.Schedule(20, func() { ran++ })
	func() {
		defer func() { _ = recover() }()
		e.Run()
	}()
	if e.Pending() != 1 {
		t.Fatalf("%d pending after the panic, want the one later event", e.Pending())
	}
	e.Schedule(15, func() { ran++ })
	e.Run()
	if ran != 2 || e.Processed() != 3 || e.Pending() != 0 {
		t.Errorf("after resuming: %d handlers ran, %d processed, %d pending; want 2, 3, 0", ran, e.Processed(), e.Pending())
	}
}
