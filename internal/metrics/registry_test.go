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
