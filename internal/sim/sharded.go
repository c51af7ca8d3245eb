package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/quartz-dcn/quartz/internal/trace"
)

// ShardedEngine runs K independent Engines in parallel under a
// conservative (null-message-free) window synchronizer. It implements
// Scheduler, so code written against that interface runs unchanged on
// one core or K.
//
// The model: the caller partitions its simulation state into K shards,
// each owning one Engine, and promises that a cross-shard interaction
// sent from shard i to shard j is scheduled at least Look(i, j) of
// virtual time into the future (for a network, the minimum propagation
// delay plus the provable transmit floor over the links from i to j).
//
// Execution is two-level. The outer level is the coordinator loop: it
// computes each shard's earliest pending event time T_i (T is their
// minimum), the earliest strict global event G, and the earliest flex
// deadline D (see ScheduleFlex); the stop bound is min(G, D). If
// stop <= T it runs a global phase — every shard parked, all clocks
// advanced to P = min(stop, end), due flex events and strict globals
// executed single-threaded (fault injection and other whole-network
// mutations use this phase). Otherwise it releases one *epoch*: the
// parked shard goroutines wake and execute parallel windows until the
// frontier reaches the stop bound or the horizon.
//
// The inner level is the stride loop, run by the shard workers inside
// an epoch with no coordinator involvement. Each stride is one
// conservative window: shard j runs to
//
//	W_j = min over i of (T_i + dist(i, j))
//
// additionally capped by the epoch's stop bound, the horizon end+1, and
// T+WindowCap(). dist is the shortest-path closure of the lookahead
// matrix (diagonal = the cheapest cycle through the shard): any event
// that will ever land on j descends from some event pending now on some
// shard i, and every cross-shard hop on the way adds at least its
// edge's lookahead, so the descendant's time is >= T_i + dist(i, j) >=
// W_j. The closure — not the direct edge — is what makes the bound
// sound across strides: a shard whose direct peers are quiet may still
// be reached through them a few hops later. At the end of a stride the
// workers meet at a sense-reversing spin barrier; the last arriver runs
// the serial section — drain the K*(K-1) SPSC rings in a fixed order
// (source shard ascending, FIFO within each ring), commit the crossed
// events, recompute every T_i, and either publish the next stride's
// bounds or mark the epoch done — then flips the barrier sense to
// release the rest. A stride therefore costs one atomic decrement per
// shard plus one serial pass, with every goroutine staying hot; the
// expensive park/wake round trip through the runtime (channel close,
// K channel receives, arrival countdown, done send) is paid only per
// epoch, at the global stops that genuinely require the coordinator.
// Workloads with few globals synchronize almost entirely through the
// spin barrier: Windows() (epochs) collapses to the global-phase rate
// while Strides() keeps counting the real conservative windows.
//
// Deadlock-freedom: every stride processes at least one event (the
// shard owning T always has one inside its window, since W_T > T, and a
// phase runs at least one due flex or strict global), so the loop
// always makes progress; an epoch's serial section leaves as soon as
// the frontier hits a bound the coordinator must handle.
//
// Determinism: stride and phase boundaries are pure functions of event
// timestamps and the lookahead matrix, the drain order is fixed, and
// each Engine is itself deterministic, so a run's results depend only
// on the initial events and the shard partition — not on goroutine
// scheduling, the shard count, or how strides are batched into epochs
// (attaching a trace, which runs one stride per epoch to keep span
// accounting exact, does not change the schedule). The one caveat: a
// crossed event that lands at exactly the same timestamp as a
// destination-local event breaks the tie by commit order rather than by
// the global schedule order a single engine would have used; with
// picosecond timestamps such collisions are measure zero, and the
// determinism tests pin the guarantee that matters (same output for
// every K).
type ShardedEngine struct {
	engines []*Engine
	// look[i][j] is the lookahead promise for events sent from shard i
	// to shard j; 0 means no direct path (unconstrained). dist is its
	// shortest-path closure (MaxTime = unreachable; the diagonal is the
	// cheapest cycle back to the shard), the bound windows actually use.
	look      [][]Time
	dist      [][]Time
	minLook   Time            // smallest positive look entry
	maxWin    Time            // cap on a stride's extent past T (Stop latency bound)
	rings     [][]*shardQueue // [src][dst]; nil on the diagonal
	globals   *Engine         // strict events that run with all shards parked
	flex      flexQueue       // coalescible globals (see flex.go)
	now       Time            // committed (synchronizer) time
	stopped   atomic.Bool
	windows   uint64 // epochs released (park/wake barrier round trips)
	strides   uint64 // conservative windows executed (>= windows)
	crossed   uint64 // cross-shard events committed
	flexRan   uint64 // flex events executed
	coalesced uint64 // flex events that ran after their nominal time

	wall     time.Duration
	runStart time.Time
	running  atomic.Bool

	// Always-on window profiling (see sharded_trace.go).
	winWall      time.Duration // wall time inside epochs
	globalPhases uint64        // all-shards-parked phases run
	ringHigh     uint64        // most events committed at one barrier

	// Per-shard scratch, reused every stride. nexts holds T_i; bounds
	// holds each shard's window end W_i - 1 and is the hand-off read by
	// the workers.
	nexts  []Time
	bounds []Time

	// Pre-window per-shard snapshots, populated only while a trace is
	// attached (hoisted off the window fast path otherwise).
	ranBefore  []uint64
	wallBefore []time.Duration

	// Epoch machinery, owned by RunUntil. batching is false while a
	// trace is attached (one stride per epoch keeps the span accounting
	// exact); epochStop/epochEnd/epochHorizon freeze the bounds the
	// serial section tests (globals and flex cannot change mid-epoch:
	// they may only be scheduled from coordinator contexts); leave is
	// the serial section's end-of-epoch signal, published by the barrier
	// release.
	batching     bool
	leave        bool
	epochStop    Time
	epochEnd     Time
	epochHorizon Time
	sb           spinBarrier
	arrive       atomic.Int32
	failed       atomic.Pointer[workerPanic]
	done         chan struct{}

	// Opt-in span recording and trace metrics (nil when detached).
	trc *shardedTrace
}

// workerPanic carries a shard goroutine's panic to the coordinator.
// shard is -1 when the panic escaped the barrier serial section rather
// than a shard's own events (e.g. a lookahead violation caught while
// committing crossed events).
type workerPanic struct {
	shard int
	val   any
}

// epoch is one coordinator round of the epoch barrier. The coordinator
// writes the first stride's bounds and the next epoch pointer, then
// closes wake — one broadcast that releases every parked worker.
// Workers stride until the serial section marks the epoch done, then
// decrement the shared arrival counter and move to next; the last
// arrival sends once on the coordinator's done channel.
type epoch struct {
	wake chan struct{}
	next *epoch // published before wake is closed
	quit bool
}

// spinBarrier synchronizes the shard workers between strides without
// waking the coordinator: arrive returns true in exactly one worker
// (the last to arrive), which runs the serial section and then calls
// release. The others spin on the generation counter — a few hot loads,
// then cooperative yields, so the barrier stays correct (if slower)
// even with GOMAXPROCS below the shard count. All operations are on
// Go atomics, so the serial section's plain writes happen-before the
// released workers' reads.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *spinBarrier) reset(n int) {
	b.n = int32(n)
	b.count.Store(int32(n))
}

func (b *spinBarrier) arrive() bool {
	g := b.gen.Load() // before the decrement: the flip needs our arrival
	if b.count.Add(-1) == 0 {
		return true
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if spins > 32 {
			runtime.Gosched()
		}
	}
	return false
}

func (b *spinBarrier) release() {
	b.count.Store(b.n) // re-arm before the flip frees the waiters
	b.gen.Add(1)
}

// crossRingCapacity is the per-directed-pair SPSC ring size. Bursts
// beyond it spill to the producer-owned overflow slice, so capacity is
// a fast-path tuning knob, not a correctness bound.
const crossRingCapacity = 1024

// DefaultWindowCap bounds how far past the global minimum T any
// shard's stride may extend when the lookahead matrix and pending
// globals leave it unconstrained (peers quiet, nothing to stop for).
// The cap is what keeps Stop() — the watchdog and signal-handler path —
// responsive: a stop request takes effect at the next stride barrier,
// so the cap is the most virtual time a single stride can swallow.
const DefaultWindowCap = Millisecond

// NewShardedEngine builds a synchronizer over k shards with a uniform
// lookahead (must be positive: a zero lookahead admits no parallel
// window). newEngine constructs each shard's engine — use
// NewCalendarEngine for dense packet workloads. For heterogeneous
// topologies, refine the uniform matrix with SetLookahead.
func NewShardedEngine(k int, lookahead Time, newEngine func(shard int) *Engine) *ShardedEngine {
	if k < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least 1 shard, got %d", k))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs positive lookahead, got %v", lookahead))
	}
	s := &ShardedEngine{
		engines: make([]*Engine, k),
		look:    make([][]Time, k),
		minLook: lookahead,
		maxWin:  DefaultWindowCap,
		rings:   make([][]*shardQueue, k),
		globals: NewEngine(),
	}
	if s.maxWin < lookahead {
		s.maxWin = lookahead
	}
	for i := 0; i < k; i++ {
		s.engines[i] = newEngine(i)
		s.look[i] = make([]Time, k)
		s.rings[i] = make([]*shardQueue, k)
		for j := 0; j < k; j++ {
			if j != i {
				s.look[i][j] = lookahead
				s.rings[i][j] = newShardQueue(crossRingCapacity)
			}
		}
	}
	s.dist = closure(s.look)
	return s
}

// closure returns the all-pairs shortest-path closure of the lookahead
// matrix under saturating min-plus (Floyd–Warshall): d[i][j] is the
// least total lookahead along any multi-hop shard path i→…→j, MaxTime
// when unreachable. The diagonal starts at MaxTime, not zero, so
// d[j][j] comes out as the cheapest cycle through j — the earliest a
// shard's own pending work can come back to bite it.
func closure(look [][]Time) [][]Time {
	k := len(look)
	d := make([][]Time, k)
	for i := range look {
		d[i] = make([]Time, k)
		for j, v := range look[i] {
			if i != j && v > 0 {
				d[i][j] = v
			} else {
				d[i][j] = MaxTime
			}
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if d[i][m] == MaxTime {
				continue
			}
			for j := 0; j < k; j++ {
				if via := satAdd(d[i][m], d[m][j]); via < d[i][j] {
					d[i][j] = via
				}
			}
		}
	}
	return d
}

// SetLookahead replaces the uniform lookahead with a per-shard-pair
// matrix: m[i][j] is the promise for events sent from shard i to shard
// j (Cross(i, j, at, ...) requires at >= sender time + m[i][j]). A zero
// entry means no direct i→j path — that pair never constrains a
// window (windows are bounded by the shortest-path closure of the
// matrix, so indirect reachability is handled soundly). Diagonal
// entries are ignored. Call before running; the matrix must not
// understate any path or windows would admit causality violations (the
// barrier drain panics on any committed event that proves it).
func (s *ShardedEngine) SetLookahead(m [][]Time) {
	k := len(s.engines)
	if len(m) != k {
		panic(fmt.Sprintf("sim: lookahead matrix is %dx?, want %dx%d", len(m), k, k))
	}
	look := make([][]Time, k)
	min := MaxTime
	for i := range m {
		if len(m[i]) != k {
			panic(fmt.Sprintf("sim: lookahead matrix row %d has %d entries, want %d", i, len(m[i]), k))
		}
		look[i] = make([]Time, k)
		for j, v := range m[i] {
			if i == j {
				continue
			}
			if v < 0 {
				panic(fmt.Sprintf("sim: negative lookahead %v for shard pair %d->%d", v, i, j))
			}
			look[i][j] = v
			if v > 0 && v < min {
				min = v
			}
		}
	}
	s.look = look
	s.dist = closure(look)
	if min < MaxTime {
		s.minLook = min
	}
	if s.maxWin < s.minLook {
		s.maxWin = s.minLook
	}
}

// SetWindowCap bounds how much virtual time one stride may cover (the
// Stop-latency knob; see DefaultWindowCap). Must be positive and at
// least the minimum lookahead.
func (s *ShardedEngine) SetWindowCap(c Time) {
	if c < s.minLook {
		panic(fmt.Sprintf("sim: window cap %v below minimum lookahead %v", c, s.minLook))
	}
	s.maxWin = c
}

// WindowCap returns the per-stride virtual-time cap.
func (s *ShardedEngine) WindowCap() Time { return s.maxWin }

// Shards returns the shard count.
func (s *ShardedEngine) Shards() int { return len(s.engines) }

// Shard returns shard i's engine. Schedule into it directly only
// during setup (before Run) or from shard i's own events; cross-shard
// scheduling during a run must go through Cross.
func (s *ShardedEngine) Shard(i int) *Engine { return s.engines[i] }

// Lookahead returns the smallest positive per-pair lookahead — the
// tightest promise any cross-shard path makes.
func (s *ShardedEngine) Lookahead() Time { return s.minLook }

// Look returns the lookahead promise for events sent from shard src to
// shard dst (0 means the pair has no direct path and never constrains
// a window).
func (s *ShardedEngine) Look(src, dst int) Time { return s.look[src][dst] }

// Now returns the committed global time: every shard has processed all
// its events strictly before this instant. Inside a global phase it
// equals the phase's timestamp.
func (s *ShardedEngine) Now() Time { return s.now }

// Schedule runs fn at absolute virtual time at as a strict global
// event: the synchronizer parks every shard, advances all clocks to at,
// and runs fn single-threaded, so fn may touch any shard's state. Use
// for whole-network mutations (fault injection, rerouting); per-shard
// work belongs on the shard's own engine, and periodic observability
// that can tolerate slack belongs on ScheduleFlex. The boxing note on
// Engine.Schedule applies, but global phases are rare by construction.
func (s *ShardedEngine) Schedule(at Time, fn func()) { s.globals.Schedule(at, fn) }

// ScheduleAction is the Action form of Schedule; the event still runs
// as a global, all-shards-parked phase.
func (s *ShardedEngine) ScheduleAction(at Time, act Action, a, b int64) {
	s.globals.ScheduleAction(at, act, a, b)
}

// After runs fn as a strict global event delay after the committed time.
func (s *ShardedEngine) After(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.globals.Schedule(s.now+delay, fn)
}

// AfterAction runs act as a global event delay after the committed time.
func (s *ShardedEngine) AfterAction(delay Time, act Action, a, b int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.globals.ScheduleAction(s.now+delay, act, a, b)
}

// ScheduleFlex runs fn as a coalescible global event: like Schedule it
// executes single-threaded with every shard parked, but it may run up
// to tol of virtual time after at, batched with other global work into
// one phase (see flex.go for the batching rule). Periodic heartbeats
// and samplers should use this form — with a tolerance, N tickers cost
// one stop per tolerance interval instead of fragmenting every
// prospective window. The execution time is deterministic and
// identical for every shard count; tol = 0 degenerates to the strict
// schedule. Like Schedule, call only during setup or from global
// events, never from a shard's own events mid-run.
func (s *ShardedEngine) ScheduleFlex(at, tol Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if tol < 0 {
		panic(fmt.Sprintf("sim: negative coalescing tolerance %v", tol))
	}
	s.flex.add(at, tol, fn)
}

// AfterFlex is ScheduleFlex with a delay relative to the committed time.
func (s *ShardedEngine) AfterFlex(delay, tol Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.ScheduleFlex(s.now+delay, tol, fn)
}

// Cross schedules act on destination shard dst at absolute time at,
// from source shard src's goroutine during a window (src != dst). The
// record travels through the src→dst SPSC ring and is committed at the
// next barrier; conservative correctness requires at to be at least
// Look(src, dst) past the sending shard's current time, which holds
// whenever at is an arrival computed as now + transmit floor +
// propagation delay. The barrier drain panics if a committed record
// proves the promise was broken.
func (s *ShardedEngine) Cross(src, dst int, at Time, act Action, a, b int64) {
	s.rings[src][dst].push(remote{at: at, act: act, a: a, b: b})
}

// Stop halts the run at the next stride boundary. Unlike Engine.Stop
// it is safe to call from any goroutine (e.g. a watchdog inside a
// shard's event, or a signal handler). WindowCap bounds how much
// virtual time may elapse before the request is honored.
func (s *ShardedEngine) Stop() { s.stopped.Store(true) }

// Processed reports the total events run across all shards, the global
// queue, and the flex queue.
func (s *ShardedEngine) Processed() uint64 {
	n := s.globals.Processed() + s.flexRan
	for _, e := range s.engines {
		n += e.Processed()
	}
	return n
}

// Pending reports the events waiting across all shards, the global
// queue, and the flex queue.
func (s *ShardedEngine) Pending() int {
	n := s.globals.Pending() + s.flex.size()
	for _, e := range s.engines {
		n += e.Pending()
	}
	return n
}

// Windows reports how many epochs the synchronizer has released — the
// park/wake barrier round trips through the coordinator, the expensive
// synchronization the run actually paid. Strides counts the
// conservative windows executed inside them.
func (s *ShardedEngine) Windows() uint64 { return s.windows }

// Strides reports how many conservative parallel windows (strides) the
// synchronizer has executed. Each stride beyond the first in an epoch
// cost only a spin-barrier round among the shard workers, not a
// coordinator wake: Strides − Windows is the synchronization the epoch
// batching saved.
func (s *ShardedEngine) Strides() uint64 { return s.strides }

// Crossed reports how many cross-shard events have been committed.
func (s *ShardedEngine) Crossed() uint64 { return s.crossed }

// CoalescedGlobals reports how many flex events ran after their nominal
// time — global stops saved by coalescing (each would otherwise have
// fragmented an epoch at its exact nominal instant).
func (s *ShardedEngine) CoalescedGlobals() uint64 { return s.coalesced }

// RingHighWater reports the most cross-shard events committed at any
// single barrier — the occupancy high-water mark of the SPSC rings
// (they are empty between strides, so the per-barrier drain count is
// the occupancy the rings actually reached).
func (s *ShardedEngine) RingHighWater() uint64 { return s.ringHigh }

// Telemetry aggregates the run across shards and carries the per-shard
// breakdown in Telemetry.Shards. The aggregate Wall is the
// synchronizer's wall time (not the per-shard sum), so
// EventsPerSecond reports true parallel throughput.
func (s *ShardedEngine) Telemetry() Telemetry {
	t := Telemetry{
		Events: s.globals.Processed() + s.flexRan,
		Wall:   s.wallNow(),
		Shards: make([]ShardTelemetry, len(s.engines)),
	}
	for i, e := range s.engines {
		et := e.Telemetry()
		t.Events += et.Events
		t.PeakPending += et.PeakPending
		t.Shards[i] = ShardTelemetry{Shard: i, Events: et.Events, PeakPending: et.PeakPending, Wall: et.Wall}
	}
	return t
}

func (s *ShardedEngine) wallNow() time.Duration {
	if s.running.Load() {
		return s.wall + time.Since(s.runStart)
	}
	return s.wall
}

// shardBusy sums the shard engines' accumulated compute wall time.
// Shard engines only run inside epochs, so this is in-window compute;
// coordinator-only (phases or between epochs).
func (s *ShardedEngine) shardBusy() time.Duration {
	var d time.Duration
	for _, e := range s.engines {
		d += e.wall
	}
	return d
}

// Run processes events until every queue is empty or Stop is called.
func (s *ShardedEngine) Run() {
	s.RunUntil(MaxTime)
}

// RunUntil processes events with timestamps <= end across all shards,
// then advances every clock to end — the same contract as
// Engine.RunUntil, executed in parallel windows. Shard goroutines live
// only for the duration of the call, parked on the epoch barrier
// between epochs.
func (s *ShardedEngine) RunUntil(end Time) {
	s.stopped.Store(false)
	s.runStart = time.Now()
	s.running.Store(true)
	startNow := s.now
	prevWin, prevBusy := s.winWall, s.shardBusy()
	prevWindows, prevStrides := s.windows, s.strides
	prevGlobals := s.globalPhases
	prevCrossed, prevCoalesced := s.crossed, s.coalesced
	defer func() {
		s.running.Store(false)
		s.wall += time.Since(s.runStart)
		s.foldProfile(profileBase{
			winWall: prevWin, busy: prevBusy, windows: prevWindows,
			strides: prevStrides, globals: prevGlobals,
			crossed: prevCrossed, coalesced: prevCoalesced,
		}, s.now-startNow)
	}()

	k := len(s.engines)
	if s.nexts == nil {
		s.nexts = make([]Time, k)
		s.bounds = make([]Time, k)
		s.ranBefore = make([]uint64, k)
		s.wallBefore = make([]time.Duration, k)
	}

	// Epoch barrier: K workers parked on cur.wake. Releasing an epoch
	// writes the stride state, arms the arrival counter, and closes
	// wake; the happens-before edges are close(wake) (coordinator
	// writes → worker reads) and the final arrive decrement plus done
	// send (worker writes → coordinator reads). Tracing runs one stride
	// per epoch so the coordinator can stamp every window's wall time.
	s.batching = s.trc == nil
	s.failed.Store(nil)
	s.done = make(chan struct{}, 1)
	cur := &epoch{wake: make(chan struct{})}
	for i := 0; i < k; i++ {
		go s.shardWorker(i, cur)
	}
	defer func() {
		// Retire the workers: the epoch they are parked on (or will
		// move to) is released with quit set.
		cur.quit = true
		close(cur.wake)
	}()

	horizon := end
	if horizon < MaxTime {
		horizon++
	}

	drained := false // every event at <= end has run (the loop was not cut short by Stop)
	for !s.stopped.Load() {
		// T_i: each shard's earliest event (T their minimum); G: the
		// earliest strict global; F/D: the earliest flex event and the
		// earliest flex deadline.
		T := MaxTime
		for i, e := range s.engines {
			if at, ok := e.NextEventAt(); ok {
				s.nexts[i] = at
				if at < T {
					T = at
				}
			} else {
				s.nexts[i] = MaxTime
			}
		}
		G := MaxTime
		if at, ok := s.globals.NextEventAt(); ok {
			G = at
		}
		F, D := s.flex.bounds()
		next := T
		if G < next {
			next = G
		}
		if F < next {
			next = F
		}
		if next == MaxTime || next > end {
			drained = true
			break
		}

		// stop: the latest instant strides may run up to before global
		// work must execute — the next strict global, or the tightest
		// flex deadline, whichever is earlier.
		stop := G
		if D < stop {
			stop = D
		}

		window := !(stop <= T || T > end)
		if window {
			s.runEpoch(k, T, stop, horizon, end, &cur)
			if s.batching {
				// The serial section drained the rings before it marked
				// the epoch done; nothing is in flight here.
				continue
			}
		} else {
			// Global phase: park shards (they already are — we are
			// between epochs), advance all clocks to P, run every due
			// flex event and the strict globals at <= P single-threaded.
			P := stop
			if end < P {
				P = end
			}
			s.runGlobalPhase(P)
		}

		// Commit crossed events in a fixed total order: source shard
		// ascending, destination ascending, FIFO within a ring. Global
		// phases can cross too (a reconverging fault handler
		// re-forwarding a held packet over a cross-shard link), so the
		// drain runs after every phase, keeping the rings empty when T
		// is computed.
		s.commitCrossed(k, window)
	}

	// Mirror Engine.RunUntil: unless Stop cut the run short, every
	// clock advances to end; after Stop they stay where the shards got
	// to, so a resumed run never sees time move backwards.
	if !drained {
		return
	}
	for _, e := range s.engines {
		e.ranThrough(end)
	}
	s.globals.ranThrough(end)
	if s.now < end && end < MaxTime {
		s.now = end
	}
}

// shardWorker is one shard's goroutine for the duration of a RunUntil
// call: wait for the epoch release, stride until the serial section
// marks the epoch done, arrive at the epoch barrier, move to the next
// epoch. A panic inside the shard is captured for the coordinator and
// still counts as an arrival, so neither barrier ever wedges.
func (s *ShardedEngine) shardWorker(i int, ep *epoch) {
	for {
		<-ep.wake
		if ep.quit {
			return
		}
		next := ep.next
		for {
			s.runShard(i)
			if !s.batching {
				break
			}
			if s.sb.arrive() {
				s.leave = s.strideSerial()
				s.sb.release()
			}
			if s.leave {
				break
			}
		}
		if s.arrive.Add(-1) == 0 {
			s.done <- struct{}{}
		}
		ep = next
	}
}

// runShard runs shard i through its published stride bound, converting
// a panic into a recorded failure (the serial section and coordinator
// check it).
func (s *ShardedEngine) runShard(i int) {
	defer func() {
		if p := recover(); p != nil {
			s.failed.CompareAndSwap(nil, &workerPanic{shard: i, val: p})
		}
	}()
	s.engines[i].RunUntil(s.bounds[i])
}

// strideSerial is the spin barrier's serial section, executed by the
// last-arriving worker with every other worker spinning (so it has
// exclusive access to all engines and rings, with happens-before edges
// through the barrier atomics). It commits the stride's crossed events,
// recomputes the frontier, and either publishes the next stride's
// bounds (returning false) or marks the epoch done (returning true) —
// the same decision the coordinator makes, against the epoch's frozen
// stop bound. Globals and flex events cannot be scheduled from shard
// events, so the bounds frozen at epoch release stay exact.
func (s *ShardedEngine) strideSerial() (leave bool) {
	defer func() {
		if p := recover(); p != nil {
			s.failed.CompareAndSwap(nil, &workerPanic{shard: -1, val: p})
			leave = true
		}
	}()
	s.commitCrossed(len(s.engines), true)
	if s.stopped.Load() || s.failed.Load() != nil {
		return true
	}
	T := MaxTime
	for i, e := range s.engines {
		if at, ok := e.NextEventAt(); ok {
			s.nexts[i] = at
			if at < T {
				T = at
			}
		} else {
			s.nexts[i] = MaxTime
		}
	}
	if s.epochStop <= T || T > s.epochEnd {
		return true
	}
	minW := s.computeBounds(T, s.epochStop, s.epochHorizon)
	s.now = minW - 1
	s.strides++
	return false
}

// computeBounds writes every shard's stride bound W_j − 1 into s.bounds
// from the current s.nexts and returns the minimum W_j. Per-shard LBTS
// over the lookahead closure: shard j may run to the earliest instant
// any pending event anywhere — including its own, routed back through a
// cycle — could cause something to land on it, capped by the stop
// bound, the horizon, and the window cap. Every dist entry is positive,
// so W_j > T for the shard owning T and every stride makes progress.
func (s *ShardedEngine) computeBounds(T, stop, horizon Time) Time {
	capW := satAdd(T, s.maxWin)
	minW := MaxTime
	for j := range s.engines {
		W := capW
		for i := range s.engines {
			if b := satAdd(s.nexts[i], s.dist[i][j]); b < W {
				W = b
			}
		}
		if stop < W {
			W = stop
		}
		if horizon < W {
			W = horizon
		}
		s.bounds[j] = W - 1
		if W < minW {
			minW = W
		}
	}
	return minW
}

// runEpoch publishes the first stride's bounds, releases one epoch, and
// waits for the workers to stride up to the stop bound. T is the global
// minimum event time, stop the frozen global stop bound, horizon end+1.
func (s *ShardedEngine) runEpoch(k int, T, stop, horizon, end Time, cur **epoch) {
	minW := s.computeBounds(T, stop, horizon)

	tracing := s.trc != nil
	winStart := time.Now()
	if tracing {
		for i, e := range s.engines {
			s.ranBefore[i] = e.ran
			s.wallBefore[i] = e.wall
		}
	}

	s.epochStop = stop
	s.epochEnd = end
	s.epochHorizon = horizon
	s.leave = false
	s.now = minW - 1
	s.strides++
	s.sb.reset(k)

	// Release the epoch: publish the next epoch, arm the arrival
	// counter, broadcast with one close, and wait for the last shard's
	// single done send.
	c := *cur
	nxt := &epoch{wake: make(chan struct{})}
	c.next = nxt
	s.arrive.Store(int32(k))
	close(c.wake)
	*cur = nxt
	<-s.done
	if p := s.failed.Load(); p != nil {
		if p.shard < 0 {
			panic(fmt.Sprintf("sim: barrier serial section panicked: %v", p.val))
		}
		panic(fmt.Sprintf("sim: shard %d panicked: %v", p.shard, p.val))
	}

	winWall := time.Since(winStart)
	s.winWall += winWall
	if tracing {
		s.traceWindow(T, minW, winStart, winWall)
	}
	s.windows++
}

// runGlobalPhase advances every clock to P and runs the due flex
// events and strict globals at <= P single-threaded, to fixpoint (a
// global may schedule further globals at <= P). Flex events run in
// (nominal time, schedule order) before strict globals sharing the
// phase instant — a strict global inside the phase span can only be at
// exactly P, never earlier than a due flex event's nominal time.
func (s *ShardedEngine) runGlobalPhase(P Time) {
	for _, e := range s.engines {
		e.advanceTo(P)
	}
	s.now = P
	tracing := s.trc != nil && s.trc.rec.Enabled()
	var gStart time.Time
	var ranBefore uint64
	if tracing {
		gStart = time.Now()
		ranBefore = s.globals.ran + s.flexRan
	}
	for {
		ran := false
		for {
			fe, ok := s.flex.popDue(P)
			if !ok {
				break
			}
			if fe.at < P {
				s.coalesced++
			}
			s.flexRan++
			fe.fn()
			ran = true
		}
		if g, ok := s.globals.NextEventAt(); ok && g <= P {
			s.globals.RunUntil(P)
			ran = true
		}
		if !ran {
			break
		}
	}
	// Keep the strict queue's clock at the phase time even when only
	// flex events ran, so stale-time scheduling fails fast.
	if s.globals.now < P {
		s.globals.now = P
	}
	if tracing {
		s.trc.rec.Add(trace.Span{
			Name: "global", Cat: "engine", Track: trace.CoordinatorTrack,
			Virt: int64(P), VirtEnd: int64(P),
			Wall:    s.trc.rec.Since(gStart),
			WallDur: time.Since(gStart).Nanoseconds(),
		}.Annotate("events", int64(s.globals.ran+s.flexRan-ranBefore)))
	}
	s.globalPhases++
}

// commitCrossed drains every SPSC ring into its destination engine —
// one batched pass per directed pair, one consumer-cursor store per
// ring instead of one per record. window says whether the rings were
// filled by a parallel stride (destination already ran through its
// bound, so committed events must land strictly beyond it) or a global
// phase (events at the phase instant are still admissible). Callers:
// the stride serial section (batching) and the coordinator (global
// phases and traced single-stride epochs).
func (s *ShardedEngine) commitCrossed(k int, window bool) {
	var dStart time.Time
	tracing := s.trc != nil && s.trc.rec.Enabled()
	if tracing {
		dStart = time.Now()
	}
	drained := uint64(0)
	for src := 0; src < k; src++ {
		for dst := 0; dst < k; dst++ {
			if q := s.rings[src][dst]; q != nil {
				e := s.engines[dst]
				floor := e.now
				if window {
					floor++
				}
				drained += commitQueue(e, q, floor)
			}
		}
	}
	s.crossed += drained
	if drained > s.ringHigh {
		s.ringHigh = drained
	}
	if drained > 0 && tracing {
		s.trc.rec.Add(trace.Span{
			Name: "drain", Cat: "engine", Track: trace.CoordinatorTrack,
			Virt: int64(s.now), VirtEnd: int64(s.now),
			Wall:    s.trc.rec.Since(dStart),
			WallDur: time.Since(dStart).Nanoseconds(),
		}.Annotate("events", int64(drained)).Annotate("ring_high", int64(s.ringHigh)))
	}
}
