package sim

import "testing"

type countingProbe struct {
	events  int
	maxPend int
}

func (c *countingProbe) Event(at Time, pending int) {
	c.events++
	if pending > c.maxPend {
		c.maxPend = pending
	}
}

func TestEngineTelemetry(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i)*Nanosecond, func() {})
	}
	if got := e.Telemetry().PeakPending; got != 10 {
		t.Errorf("PeakPending before run = %d, want 10", got)
	}
	e.Run()
	tel := e.Telemetry()
	if tel.Events != 10 {
		t.Errorf("Events = %d, want 10", tel.Events)
	}
	if tel.PeakPending != 10 {
		t.Errorf("PeakPending = %d, want 10", tel.PeakPending)
	}
	if tel.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", tel.Wall)
	}
	if tel.EventsPerSecond() <= 0 {
		t.Errorf("EventsPerSecond = %v, want > 0", tel.EventsPerSecond())
	}
}

func TestEngineTelemetryZero(t *testing.T) {
	var tel Telemetry
	if got := tel.EventsPerSecond(); got != 0 {
		t.Errorf("zero-value EventsPerSecond = %v, want 0", got)
	}
}

func TestEngineEventProbe(t *testing.T) {
	e := NewEngine()
	p := &countingProbe{}
	e.SetProbe(p)
	// A chain of nested events: each schedules the next, so the probe
	// must see every one with the post-pop pending count.
	var n int
	var step func()
	step = func() {
		n++
		if n < 5 {
			e.After(Nanosecond, step)
		}
	}
	e.After(0, step)
	e.Run()
	if p.events != 5 {
		t.Errorf("probe saw %d events, want 5", p.events)
	}
	e.SetProbe(nil) // detaching must not break the loop
	e.After(0, func() {})
	e.Run()
	if p.events != 5 {
		t.Errorf("detached probe saw %d events, want 5", p.events)
	}
}
