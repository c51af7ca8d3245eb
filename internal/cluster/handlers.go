package cluster

// The coordinator's own HTTP surface, mounted next to the service
// handler in cmd/quartzd:
//
//	GET /cluster  the worker set: URL, liveness, queue depth

import (
	"encoding/json"
	"net/http"
)

// Handler returns the coordinator mux (the /cluster route).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster", c.handleWorkers)
	return mux
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(c.WorkersSnapshot())
}
