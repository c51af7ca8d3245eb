package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("pkts_total", "packets", Labels{"arch": "ring"})
	c2 := r.Counter("pkts_total", "", Labels{"arch": "ring"})
	if c1 != c2 {
		t.Fatal("same (name, labels) must resolve to the same counter")
	}
	c3 := r.Counter("pkts_total", "", Labels{"arch": "tree3"})
	if c1 == c3 {
		t.Fatal("different labels must resolve to different counters")
	}
	c1.Add(3)
	c3.Inc()
	if c1.Value() != 3 || c3.Value() != 1 {
		t.Fatalf("counter values: %d, %d", c1.Value(), c3.Value())
	}

	g := r.Gauge("depth_bytes", "queue depth", nil)
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge value: %v", g.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x", "", nil)
}

func TestLabelsCanonicalization(t *testing.T) {
	a := Labels{"b": "2", "a": "1"}
	b := Labels{"a": "1", "b": "2"}
	if a.key() != b.key() {
		t.Fatalf("label keys differ: %q vs %q", a.key(), b.key())
	}
	if want := `a="1",b="2"`; a.key() != want {
		t.Fatalf("key = %q, want %q", a.key(), want)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "", nil)
	g := r.Gauge("pending", "", nil)
	h := r.Histogram("lat_us", "", nil)

	c.Add(10)
	g.Set(5)
	h.Observe(1)
	h.Observe(100)
	s1 := r.Snapshot()

	c.Add(7)
	g.Set(3)
	h.Observe(10)
	s2 := r.Snapshot()

	d := s2.Diff(s1)
	byName := map[string]SeriesSnapshot{}
	for _, s := range d.Series {
		byName[s.Name] = s
	}
	if v := byName["events_total"].Value; v != 7 {
		t.Errorf("counter delta = %v, want 7", v)
	}
	if v := byName["pending"].Value; v != 3 {
		t.Errorf("gauge after diff = %v, want 3 (latest value)", v)
	}
	if n := byName["lat_us"].Count; n != 1 {
		t.Errorf("histogram count delta = %d, want 1", n)
	}
	var bucketTotal uint64
	for _, b := range byName["lat_us"].Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 1 {
		t.Errorf("diffed bucket counts sum to %d, want 1", bucketTotal)
	}
	// Diff against an empty snapshot is the snapshot itself.
	d0 := s1.Diff(Snapshot{})
	for _, s := range d0.Series {
		if s.Name == "events_total" && s.Value != 10 {
			t.Errorf("diff vs empty: counter = %v, want 10", s.Value)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "", nil)
	r.Counter("a_total", "", Labels{"z": "1"})
	r.Counter("a_total", "", Labels{"y": "1"})
	s := r.Snapshot()
	var got []string
	for _, ss := range s.Series {
		got = append(got, ss.Name+"{"+ss.Labels.key()+"}")
	}
	want := []string{`b_total{}`, `a_total{z="1"}`, `a_total{y="1"}`}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("snapshot order = %v, want creation order %v", got, want)
	}
}

func TestInstrumentsConcurrentSafe(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "", nil)
	h := r.Histogram("h", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				c.Inc()
				h.Observe(float64(i%100) + 1)
				_ = h.Quantile(0.99) // concurrent reader path
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if c.Value() != 40_000 {
		t.Fatalf("counter = %d, want 40000", c.Value())
	}
	if h.Count() != 40_000 {
		t.Fatalf("histogram count = %d, want 40000", h.Count())
	}
	if math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("quantile of populated histogram is NaN")
	}
}
