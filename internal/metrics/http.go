package metrics

// The live export surface: an http.Handler over a Registry so a
// multi-minute simulation can be watched mid-flight. /metrics serves
// the Prometheus text format; /status (and /) serves a JSON run-status
// page: static metadata from the caller plus the full current
// snapshot. Handlers only read atomic instrument state — they never
// touch the simulation's own structures — so serving from another
// goroutine while the single-threaded event loop runs is race-free.

import (
	"encoding/json"
	"net/http"
	"time"
)

// StatusMeta is the static run description shown on the status page.
type StatusMeta map[string]string

// statusPage is the JSON document served at /status.
type statusPage struct {
	Meta       StatusMeta       `json:"meta,omitempty"`
	UptimeSecs float64          `json:"uptime_secs"`
	Series     []SeriesSnapshot `json:"series"`
}

// Handler returns the live export mux for a registry. meta may be nil.
func Handler(r *Registry, meta StatusMeta) http.Handler {
	started := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot())
	})
	status := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(statusPage{
			Meta:       meta,
			UptimeSecs: time.Since(started).Seconds(),
			Series:     r.Snapshot().Series,
		})
	}
	mux.HandleFunc("/status", status)
	mux.HandleFunc("/", status)
	return mux
}

// Read-side limits of every server this module starts. A peer that
// stalls mid-header or mid-body, or idles on a kept-alive connection, is
// disconnected instead of holding a goroutine and a descriptor forever.
// There is deliberately no write timeout: quartzd's /jobs/{id}/events
// streams for as long as a job runs.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer returns an unstarted server for h with those limits set.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Serve starts an HTTP server for the registry on addr in a background
// goroutine and returns it; errors after startup (and clean shutdowns)
// are delivered to errc if non-nil. Callers that outlive the run should
// Close the returned server.
func Serve(addr string, r *Registry, meta StatusMeta, errc chan<- error) *http.Server {
	srv := NewServer(Handler(r, meta))
	srv.Addr = addr
	go func() {
		err := srv.ListenAndServe()
		if errc != nil {
			errc <- err
		}
	}()
	return srv
}
