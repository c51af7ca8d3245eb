package sim

import (
	"testing"

	"github.com/quartz-dcn/quartz/internal/metrics"
)

func TestHeartbeatPublishes(t *testing.T) {
	e := NewEngine()
	r := metrics.NewRegistry()

	// A busy little workload: an event every microsecond for 1 ms.
	var work func()
	n := 0
	work = func() {
		n++
		if e.Now() < Millisecond {
			e.After(Microsecond, work)
		}
	}
	e.Schedule(0, work)

	hb := AttachHeartbeat(e, r, 100*Microsecond, Millisecond)
	ticks := 0
	var lastAt Time
	hb.OnTick = func(at Time) {
		ticks++
		lastAt = at
	}

	e.RunUntil(Millisecond)

	if ticks != 10 {
		t.Fatalf("heartbeat ticks = %d, want 10", ticks)
	}
	if lastAt != Millisecond {
		t.Fatalf("last tick at %v, want 1ms", lastAt)
	}
	snap := r.Snapshot()
	vals := map[string]float64{}
	for _, s := range snap.Series {
		vals[s.Name] = s.Value
	}
	// The counter reflects events as of the final tick; events scheduled
	// at the same instant but after the tick are not yet counted.
	if got := vals["sim_events_total"]; got < float64(e.Processed())-2 || got > float64(e.Processed()) {
		t.Errorf("sim_events_total = %v, want ~%v", got, e.Processed())
	}
	if got := vals["sim_virtual_time_seconds"]; got != Millisecond.Seconds() {
		t.Errorf("sim_virtual_time_seconds = %v, want %v", got, Millisecond.Seconds())
	}
	if vals["sim_events_per_sec"] <= 0 {
		t.Errorf("sim_events_per_sec = %v, want > 0", vals["sim_events_per_sec"])
	}
	if vals["sim_clock_skew"] <= 0 {
		t.Errorf("sim_clock_skew = %v, want > 0", vals["sim_clock_skew"])
	}
	if vals["sim_peak_pending_events"] <= 0 {
		t.Errorf("sim_peak_pending_events = %v, want > 0", vals["sim_peak_pending_events"])
	}
}

func TestHeartbeatBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval must panic")
		}
	}()
	AttachHeartbeat(NewEngine(), metrics.NewRegistry(), 0, Millisecond)
}
