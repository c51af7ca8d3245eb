package sim

import "testing"

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
