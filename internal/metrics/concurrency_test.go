package metrics

// Concurrent use of the Registry: writers updating instruments and
// minting new series while readers snapshot and export. The service
// layer (internal/service) drives the registry exactly this way — HTTP
// /metrics scrapes race worker-pool updates — so this is run under
// -race in `make verify`.

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestRegistryConcurrentReadersAndWriters(t *testing.T) {
	reg := NewRegistry()

	// Pre-existing instruments the writers hammer.
	base := reg.Counter("conc_ops_total", "ops", nil)
	gauge := reg.Gauge("conc_depth", "depth", nil)
	hist := reg.Histogram("conc_latency_us", "latency", nil)

	const (
		writers = 4
		readers = 4
		rounds  = 500
	)
	start := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: update existing series and mint fresh ones (lookup path
	// and instrument path both exercised).
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			labels := Labels{"writer": string(rune('a' + w))}
			for i := 0; i < rounds; i++ {
				base.Inc()
				gauge.Set(float64(i))
				hist.Observe(float64(i%100 + 1))
				// Same (name, labels) each round: the registry must
				// return the one existing series, never a duplicate.
				reg.Counter("conc_per_writer_total", "per-writer ops", labels).Inc()
				if i%50 == 0 {
					// A genuinely new family appears mid-flight.
					reg.Gauge("conc_dynamic", "appears during the run", Labels{
						"writer": string(rune('a' + w)),
						"round":  string(rune('A' + i/50)),
					}).Set(1)
				}
			}
		}(w)
	}

	// Readers: snapshot and export against live state — quartzd's
	// /metrics scrape path, plus the JSON /status page.
	status := Handler(reg, nil)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds/10; i++ {
				snap := reg.Snapshot()
				for _, s := range snap.Series {
					if s.Name == "" {
						t.Error("snapshot series with empty name")
						return
					}
				}
				if err := WritePrometheus(io.Discard, snap); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				rec := httptest.NewRecorder()
				status.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
				if rec.Code != 200 {
					t.Errorf("/status = %d", rec.Code)
					return
				}
			}
		}()
	}

	close(start)
	wg.Wait()

	// Totals must be exact: no update may be lost to a concurrent
	// snapshot or a duplicate series.
	if got := base.Value(); got != writers*rounds {
		t.Errorf("conc_ops_total = %d, want %d", got, writers*rounds)
	}
	snap := reg.Snapshot()
	perWriter := 0
	for _, s := range snap.Series {
		if s.Name == "conc_per_writer_total" {
			perWriter++
			if s.Value != rounds {
				t.Errorf("per-writer series %v = %v, want %d", s.Labels, s.Value, rounds)
			}
		}
	}
	if perWriter != writers {
		t.Errorf("conc_per_writer_total has %d series, want %d", perWriter, writers)
	}
	var histCount uint64
	for _, s := range snap.Series {
		if s.Name == "conc_latency_us" {
			histCount = s.Count
		}
	}
	if histCount != writers*rounds {
		t.Errorf("histogram count = %d, want %d", histCount, writers*rounds)
	}
}
