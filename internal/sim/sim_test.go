package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{3 * Second, "3s"},
		{500 * Microsecond, "500.000us"},
		{6 * Microsecond, "6.000us"},
		{380 * Nanosecond, "380.000ns"},
		{7 * Picosecond, "7ps"},
		{2500 * Nanosecond, "2.500us"},
		{1500 * Millisecond, "1500.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		in   Rate
		want string
	}{
		{10 * Gbps, "10Gbps"},
		{200 * Mbps, "200Mbps"},
		{64 * Kbps, "64Kbps"},
		{999, "999bps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Rate(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSerializeExact(t *testing.T) {
	// 400-byte paper packet at 10 Gbps: 3200 bits / 1e10 bps = 320 ns.
	if got := (10 * Gbps).Serialize(400); got != 320*Nanosecond {
		t.Errorf("400B @ 10Gbps = %v, want 320ns", got)
	}
	// 1500-byte frame at 1 Gbps: 12000 bits / 1e9 = 12 us.
	if got := (1 * Gbps).Serialize(1500); got != 12*Microsecond {
		t.Errorf("1500B @ 1Gbps = %v, want 12us", got)
	}
	// One bit at 100 Gbps is exactly 10 ps, so one byte is 80 ps.
	if got := (100 * Gbps).Serialize(1); got != 80*Picosecond {
		t.Errorf("1B @ 100Gbps = %v, want 80ps", got)
	}
}

func TestSerializePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Serialize on zero rate did not panic")
		}
	}()
	Rate(0).Serialize(1)
}

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	times := []Time{5, 1, 3, 2, 4, 1, 0}
	for _, at := range times {
		at := at
		e.Schedule(at, func() { order = append(order, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Errorf("events ran out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Errorf("ran %d events, want %d", len(order), len(times))
	}
	if e.Processed() != uint64(len(times)) {
		t.Errorf("Processed() = %d, want %d", e.Processed(), len(times))
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered at %d: got %v", i, order[:i+1])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
		e.Schedule(12, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	want := []Time{10, 12, 15}
	if len(hits) != len(want) {
		t.Fatalf("got %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("hit %d at %v, want %v", i, hits[i], want[i])
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.stop() })
	e.Schedule(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Errorf("ran %d events after stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	// A subsequent Run picks up where we left off.
	e.Run()
	if ran != 2 {
		t.Errorf("resume ran %d total, want 2", ran)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for _, at := range []Time{10, 20, 30} {
		e.Schedule(at, func() { ran++ })
	}
	e.RunUntil(20)
	if ran != 2 {
		t.Errorf("RunUntil(20) ran %d events, want 2 (inclusive bound)", ran)
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v after RunUntil(20), want 20", e.Now())
	}
	e.RunUntil(100)
	if ran != 3 {
		t.Errorf("second RunUntil ran %d total, want 3", ran)
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want clock advanced to 100", e.Now())
	}
}

// TestEngineOrderingProperty checks, over random schedules, that events
// always run in non-decreasing time order and that all events run.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%64) + 1
		var last Time = -1
		ok := true
		ran := 0
		for i := 0; i < count; i++ {
			at := Time(rng.Int63n(1000))
			e.Schedule(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				ran++
			})
		}
		e.Run()
		return ok && ran == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}
