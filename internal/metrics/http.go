package metrics

// The live export surface: an http.Handler over a Registry, which
// quartzd mounts beside its job API. /metrics serves the Prometheus
// text format; /status (and /) serves a JSON status page: static
// metadata from the caller plus the full current snapshot. Handlers
// only read atomic instrument state, so a scrape races no writer.

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
