package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("quartz_packets_delivered_total", "packets delivered", nil).Add(12)
	r.Counter("quartz_packets_dropped_total", "packets dropped", Labels{"reason": "queue-full"}).Add(3)
	r.Gauge("quartz_queue_bytes_max", "deepest output queue", nil).Set(9000)
	h := r.Histogram("quartz_packet_latency_us", "per-packet latency", nil)
	for _, v := range []float64{2, 3, 5, 8, 13, 210} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheus(t *testing.T) {
	r := testRegistry()
	// The text format escapes only \\, \" and \n in a label value; any
	// other character, a no-break space included, is written as itself
	// (a Prometheus parser rejects Go's \u00a0).
	r.Counter("quartz_worker_up", "", Labels{"worker": "http://a\u00a0b:1/\"\\\n"}).Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE quartz_packets_delivered_total counter",
		"quartz_packets_delivered_total 12",
		`quartz_packets_dropped_total{reason="queue-full"} 3`,
		"# TYPE quartz_queue_bytes_max gauge",
		"quartz_queue_bytes_max 9000",
		"# TYPE quartz_packet_latency_us histogram",
		`quartz_packet_latency_us_bucket{le="+Inf"} 6`,
		"quartz_packet_latency_us_count 6",
		`quartz_packet_latency_us{quantile="0.99"}`,
		"quartz_worker_up{worker=\"http://a\u00a0b:1/\\\"\\\\\\n\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be nondecreasing and end at count.
	var last int64 = -1
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "quartz_packet_latency_us_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %d after %d (%s)", v, last, line)
		}
		last = v
	}
	if last != 6 {
		t.Fatalf("last cumulative bucket = %d, want 6", last)
	}
}

func TestHTTPHandler(t *testing.T) {
	h := Handler(testRegistry(), StatusMeta{"arch": "edgecore", "workload": "scatter"})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "quartz_packets_delivered_total 12") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status status = %d", rec.Code)
	}
	var page struct {
		Meta   map[string]string `json:"meta"`
		Series []json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if page.Meta["arch"] != "edgecore" || len(page.Series) != 4 {
		t.Fatalf("status page: meta=%v series=%d", page.Meta, len(page.Series))
	}
}
