package sim

// Heartbeat publishes the engine's own health into a metrics.Registry
// on a periodic simulation event: how much work the loop is doing
// (events/sec against the wall clock), how deep the event queue is, how
// far virtual time has advanced, and the virtual-vs-wall clock skew —
// the "is this multi-minute run making progress?" signals a live
// exporter serves. The tick runs inside the event loop, so publishing
// is single-threaded; readers (the HTTP endpoint) see atomic
// instrument state.

import (
	"time"

	"github.com/quartz-dcn/quartz/internal/metrics"
)

// Heartbeat is an attached engine-metrics publisher. Create one with
// AttachHeartbeat before running the engine.
type Heartbeat struct {
	eng      *Engine
	interval Time

	events      *metrics.Counter
	pending     *metrics.Gauge
	peakPending *metrics.Gauge
	evRate      *metrics.Gauge
	virtual     *metrics.Gauge
	wall        *metrics.Gauge
	skew        *metrics.Gauge

	lastEvents uint64
	lastWall   time.Duration
	lastNow    Time

	// OnTick, if set, runs after each publish with the tick's virtual
	// time — the hook interval exporters (NDJSON snapshots) ride on.
	OnTick func(at Time)
}

// AttachHeartbeat registers the engine's instruments in r and schedules
// a publishing tick every interval of virtual time until the given
// time (inclusive, like QueueSampler.Start). Call before running the
// engine. The instruments:
//
//	sim_events_total          counter  events processed
//	sim_pending_events        gauge    event-queue depth now
//	sim_peak_pending_events   gauge    event-queue high-water mark
//	sim_events_per_sec        gauge    wall-clock rate over the last interval
//	sim_virtual_time_seconds  gauge    virtual clock
//	sim_wall_time_seconds     gauge    wall clock spent in the loop
//	sim_clock_skew            gauge    wall seconds per virtual second over
//	                                   the last interval (1 = real time)
func AttachHeartbeat(e *Engine, r *metrics.Registry, interval, until Time) *Heartbeat {
	if interval <= 0 {
		panic("sim: heartbeat interval must be positive")
	}
	h := &Heartbeat{
		eng:         e,
		interval:    interval,
		events:      r.Counter("sim_events_total", "simulation events processed", nil),
		pending:     r.Gauge("sim_pending_events", "events waiting in the calendar", nil),
		peakPending: r.Gauge("sim_peak_pending_events", "calendar high-water mark", nil),
		evRate:      r.Gauge("sim_events_per_sec", "wall-clock event rate over the last heartbeat interval", nil),
		virtual:     r.Gauge("sim_virtual_time_seconds", "virtual clock", nil),
		wall:        r.Gauge("sim_wall_time_seconds", "wall-clock time spent in the event loop", nil),
		skew:        r.Gauge("sim_clock_skew", "wall seconds per virtual second over the last heartbeat interval", nil),
	}
	var tick func()
	tick = func() {
		h.publish()
		if e.Now()+interval <= until {
			e.After(interval, tick)
		}
	}
	e.After(interval, tick)
	return h
}

// publish copies the engine state into the instruments and advances the
// interval baselines.
func (h *Heartbeat) publish() {
	e := h.eng
	now := e.Now()
	wall := e.wallNow()

	events := e.Processed()
	h.events.Add(events - h.lastEvents)
	h.pending.Set(float64(e.Pending()))
	h.peakPending.Set(float64(e.queue.peak()))
	h.virtual.Set(now.Seconds())
	h.wall.Set(wall.Seconds())

	dWall := (wall - h.lastWall).Seconds()
	dVirtual := (now - h.lastNow).Seconds()
	if dWall > 0 {
		h.evRate.Set(float64(events-h.lastEvents) / dWall)
	}
	if dVirtual > 0 {
		h.skew.Set(dWall / dVirtual)
	}
	h.lastEvents = events
	h.lastWall = wall
	h.lastNow = now

	if h.OnTick != nil {
		h.OnTick(now)
	}
}
