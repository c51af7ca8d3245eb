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
	Schedule(at Time, fn func())
	ScheduleAction(at Time, act Action, a, b int64)
	ReserveSeq() uint64
	ScheduleReserved(at Time, seq uint64, act Action, a, b int64)
	Passed(at Time, seq uint64) bool
	Stop()
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
func (m *refEngine) Stop()        { m.stopped = true }

func (m *refEngine) Schedule(at Time, fn func()) {
	m.seq++
	m.pending = append(m.pending, refEvent{at, m.seq, fn})
}

func (m *refEngine) ScheduleAction(at Time, act Action, a, b int64) {
	m.Schedule(at, func() { act.Run(a, b) })
}

func (m *refEngine) ReserveSeq() uint64 {
	m.seq++
	return m.seq
}

func (m *refEngine) ScheduleReserved(at Time, seq uint64, act Action, a, b int64) {
	m.pending = append(m.pending, refEvent{at, seq, func() { act.Run(a, b) }})
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
// engine, logging everything observable: which event ran when, every
// Passed answer, and the clock and queue depth after every run.
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

// Event behaviours (the b argument of program.Run); anything from
// behaveSpawn up spawns a child delay(b-behaveSpawn) later and arms the
// oldest open reservation from inside the event.
const (
	behavePlain = iota
	behaveStop
	behaveSpawn
)

const (
	opClosure = iota
	opAction
	opReserve
	opArm
	opStopper
	opSpawner
	opRunUntil
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
	p.log = append(p.log, fmt.Sprintf("run %d at %d", id, p.e.Now()))
	switch {
	case behaviour == behaveStop:
		p.e.Stop()
	case behaviour >= behaveSpawn:
		p.e.ScheduleAction(p.e.Now()+delay(byte(behaviour-behaveSpawn)), p, p.id(), behavePlain)
		p.arm()
	}
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
	p.log = append(p.log, fmt.Sprintf("ran until %d: now %d, %d pending", end, p.e.Now(), p.e.Pending()))
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
// ScheduleAction, ReserveSeq, ScheduleReserved, Stop and RunUntil —
// events scheduling events and arming reservations from inside the loop
// included — log the same on the engine as on the sort-based model.
func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		checkAgainstModel(t, randomProgram(rng, 1+rng.Intn(maxOps)))
	}
}

// FuzzEngineOrder is the same check under the native fuzzer, seeded
// with programs from the generator above (`make verify` runs it for ten
// seconds).
func FuzzEngineOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, ops := range []int{1, 8, 40, 200} {
		f.Add(randomProgram(rng, ops))
	}
	f.Fuzz(checkAgainstModel)
}
