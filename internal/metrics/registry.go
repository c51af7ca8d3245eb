package metrics

// This file is the metrics registry: named, labeled instruments
// (Counter, Gauge, LatencyHistogram) that quartzd's job service and
// cluster coordinator update while they serve, with snapshots on top.
// All instrument operations are lock-free atomic updates, so the HTTP
// handler (quartzd's /metrics) can read a registry from one goroutine
// while worker goroutines write it.
//
// The cardinality model is deliberately small: export aggregates
// (per-state, per-worker, per-daemon), never per-job or per-request
// series. A simulation's per-flow and per-packet facts are tables
// (netsim's FlowTracker, QueueSampler and TraceRecorder), not series.
// Keep label sets bounded.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one instrument's label set. Instruments are identified by
// (name, labels); the registry canonicalizes the map by sorting keys,
// so equal maps always resolve to the same series.
type Labels map[string]string

// key returns the canonical form: `k1="v1",k2="v2"` with sorted keys
// (also exactly the Prometheus exposition form between braces).
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		labelValueEscaper.WriteString(&b, l[k])
		b.WriteByte('"')
	}
	return b.String()
}

// labelValueEscaper escapes a label value for the text exposition
// format (0.0.4), which allows any UTF-8 and only the escapes \\, \"
// and \n: Go's %q would write \u00a0 for a no-break space, and a
// Prometheus parser rejects the scrape. The mapping is injective, so
// distinct label sets keep distinct keys.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// clone copies the label map so callers can reuse theirs.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Kind is the instrument type of a metric family.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Counter is a monotonically increasing count. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one (labels, instrument) pair inside a family.
type series struct {
	labels Labels
	key    string

	counter *Counter
	gauge   *Gauge
	hist    *LatencyHistogram
}

// family groups every series sharing a metric name.
type family struct {
	name, help string
	kind       Kind

	order  []string // series keys in creation order
	series map[string]*series
}

// Registry holds metric families. The zero value is not usable; create
// one with NewRegistry. Instrument lookup takes the registry lock;
// updating a resolved instrument is lock-free, so hot paths should
// resolve instruments once and hold the pointers.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the series (name, labels), enforcing one kind
// per family.
func (r *Registry) lookup(name, help string, kind Kind, labels Labels) *series {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	k := labels.key()
	s := f.series[k]
	if s == nil {
		s = &series{labels: labels.clone(), key: k}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = NewLatencyHistogram()
		}
		f.series[k] = s
		f.order = append(f.order, k)
	}
	return s
}

// Counter returns the counter (name, labels), creating it on first use.
// Requesting an existing name with a different kind panics.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, KindCounter, labels).counter
}

// Gauge returns the gauge (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, KindGauge, labels).gauge
}

// Histogram returns the latency histogram (name, labels), creating it
// on first use.
func (r *Registry) Histogram(name, help string, labels Labels) *LatencyHistogram {
	return r.lookup(name, help, KindHistogram, labels).hist
}

// Bucket is one non-empty histogram bucket of a snapshot, keyed by its
// upper bound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	// Count is the bucket's own count (not cumulative).
	Count uint64 `json:"count"`
}

// SeriesSnapshot is one series frozen at snapshot time.
type SeriesSnapshot struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Kind   Kind   `json:"-"`

	// Value carries the counter count or the gauge value.
	Value float64 `json:"value"`

	// Histogram state (KindHistogram only).
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	P50     float64  `json:"p50,omitempty"`
	P95     float64  `json:"p95,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	P999    float64  `json:"p999,omitempty"`
	Buckets []Bucket `json:"-"`
	HistMin float64  `json:"min,omitempty"`
	HistMax float64  `json:"max,omitempty"`
}

// Snapshot is a point-in-time copy of every series in a registry,
// ordered by family creation then series creation — deterministic for
// a deterministic simulation.
type Snapshot struct {
	Series []SeriesSnapshot
	// help/kind per family name, carried for the exporters.
	help map[string]string
	kind map[string]Kind
}

// Help returns the registered help string of a family.
func (s Snapshot) Help(name string) string { return s.help[name] }

// KindOf returns the instrument kind of a family.
func (s Snapshot) KindOf(name string) Kind { return s.kind[name] }

// Snapshot freezes the registry. Safe to call from any goroutine while
// instruments are being updated; each series is read atomically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		help: make(map[string]string, len(r.families)),
		kind: make(map[string]Kind, len(r.families)),
	}
	for _, name := range r.order {
		f := r.families[name]
		snap.help[name] = f.help
		snap.kind[name] = f.kind
		for _, k := range f.order {
			s := f.series[k]
			ss := SeriesSnapshot{Name: name, Labels: s.labels, Kind: f.kind}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = s.gauge.Value()
			case KindHistogram:
				h := s.hist
				ss.Count = h.Count()
				ss.Sum = h.Sum()
				if ss.Count > 0 { // quantiles are NaN (not JSON-safe) when empty
					ss.P50 = h.Quantile(0.50)
					ss.P95 = h.Quantile(0.95)
					ss.P99 = h.Quantile(0.99)
					ss.P999 = h.Quantile(0.999)
					ss.HistMin = h.Min()
					ss.HistMax = h.Max()
				}
				ss.Buckets = h.Buckets()
			}
			snap.Series = append(snap.Series, ss)
		}
	}
	return snap
}
