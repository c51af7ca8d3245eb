package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/scenario"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := sample{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{50: 3, 100: 5, 25: 2, 75: 4, 90: 4.6} {
		if got := s.p(p); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := (sample{7}).p(99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestGenBlockDeterministicPerSeed(t *testing.T) {
	a, b := genBlock(2014, 1, 7), genBlock(2014, 1, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same (seed, client, block) gave two different blocks")
	}
	count := map[opKind]int{}
	for _, o := range a {
		count[o.kind]++
		if o.kind == opHit && (o.key < 0 || o.key >= hotKeys) {
			t.Errorf("hit key %d out of range", o.key)
		}
	}
	if count[opHit] != 40 || count[opNocache] != 9 || count[opCold] != 1 {
		t.Errorf("mix %v, want 40 hit : 9 nocache : 1 cold", count)
	}
	if reflect.DeepEqual(a, genBlock(2015, 1, 7)) {
		t.Error("another seed gave the same block")
	}

	// Cold seeds are positive and never repeat: a repeat would be
	// served from quartzd's cache and stop being cold.
	seen := map[int64]bool{}
	for client := 0; client < 2; client++ {
		for block := -3; block < 500; block++ {
			for _, o := range genBlock(2014, client, block) {
				if o.kind != opCold {
					continue
				}
				if o.seed <= 0 || seen[o.seed] {
					t.Fatalf("client %d block %d: cold seed %d is not positive and fresh", client, block, o.seed)
				}
				seen[o.seed] = true
			}
		}
	}
}

func TestColdDocDeterministicAndValid(t *testing.T) {
	if !bytes.Equal(coldDoc(42), coldDoc(42)) {
		t.Fatal("the same seed gave two different scenario documents")
	}
	if bytes.Equal(coldDoc(42), coldDoc(43)) {
		t.Fatal("two seeds gave the same scenario document")
	}
	file, err := scenario.Decode(coldDoc(42), "cold.json")
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c, err := scenario.Compile(file)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.Params.Seed != 42 {
		t.Errorf("compiled seed %d, want 42", c.Params.Seed)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 1, name: "pass", start: ms(0), end: ms(100)},
		{id: 2, parent: 1, name: "a", start: ms(10), end: ms(30)},
		{id: 3, parent: 1, name: "b", start: ms(20), end: ms(50)}, // overlaps a
		{id: 4, parent: 1, name: "a", start: ms(60), end: ms(70)},
		{id: 5, parent: 3, name: "c", start: ms(25), end: ms(45)},
		{id: 6, parent: 1, name: "late", start: ms(90), end: ms(120)}, // outlives its parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(20), 3: ms(10), 4: ms(10), 5: ms(20), 6: ms(30)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if got := byName["a"]; got < 0.0299 || got > 0.0301 {
		t.Errorf("self time of name a = %v s, want 0.030", got)
	}
}

func TestTracerDisabledAndOps(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 0, 0); id != 0 {
		t.Errorf("disabled tracer returned span %d", id)
	}
	off.finish(0)
	if off.finished() != nil {
		t.Error("disabled tracer has spans")
	}

	tr := newTracer()
	root := tr.begin("pass", 0, 0, 0)
	child := tr.begin("op:hit", root, tr.opOf(root), 0)
	open := tr.begin("never finished", root, tr.opOf(root), 0)
	tr.finish(child)
	tr.finish(root)
	got := tr.finished()
	if len(got) != 2 || got[0].id != root || got[1].id != child {
		t.Fatalf("finished spans %+v (span %d was never finished)", got, open)
	}
	if got[1].parent != root || got[1].op != got[0].op || got[0].op != root {
		t.Errorf("parent/op wiring: %+v", got)
	}
}

func rep(vals map[string]float64) *report {
	r := &report{Schema: reportSchema, Workload: "svc_mix", Seed: 1, Correct: true, Attempted: 10, OutputsDigest: "d", Metrics: map[string]value{}}
	for k, v := range vals {
		r.Metrics[k] = value{Value: v}
	}
	return r
}

func boundOf(t *testing.T, name string) float64 {
	t.Helper()
	for _, d := range endToEnd {
		if d.name == name {
			return d.bound
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return 0
}

func TestCompareBounds(t *testing.T) {
	base := map[string]float64{"pass_s_p50": 1, "jobs_per_s": 100, "allocs_per_pass": 1000, "failed_frac": 0, "md1_err_pct": 2.5}
	with := func(k string, v float64) *report {
		m := map[string]float64{}
		for bk, bv := range base {
			m[bk] = bv
		}
		m[k] = v
		return rep(m)
	}
	breached := func(b *report) []string {
		var names []string
		for _, br := range compareReports(rep(base), b, io.Discard) {
			names = append(names, br.metric)
		}
		return names
	}
	wall, allocs := boundOf(t, "pass_s_p50"), boundOf(t, "allocs_per_pass")
	if allocs >= wall {
		t.Fatalf("allocs_per_pass bound %v should be tighter than the wall-clock bound %v", allocs, wall)
	}
	for _, c := range []struct {
		name string
		b    *report
		want []string
	}{
		{"identical", rep(base), nil},
		{"lower-is-better inside its bound", with("pass_s_p50", 1+wall-0.01), nil},
		{"lower-is-better beyond its bound", with("pass_s_p50", 1+wall+0.01), []string{"pass_s_p50"}},
		{"an improvement is never a breach", with("pass_s_p50", 0.5), nil},
		{"higher-is-better inside its bound", with("jobs_per_s", 100*(1-wall)+1), nil},
		{"higher-is-better beyond its bound", with("jobs_per_s", 100*(1-wall)-1), []string{"jobs_per_s"}},
		{"each metric has its own bound", with("allocs_per_pass", 1000*(1+allocs)+1), []string{"allocs_per_pass"}},
		{"any failure breaches failed_frac", with("failed_frac", 0.001), []string{"failed_frac"}},
		{"md1 error may not rise", with("md1_err_pct", 2.6), []string{"md1_err_pct"}},
	} {
		if got := breached(c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: breaches %v, want %v", c.name, got, c.want)
		}
	}

	other := rep(base)
	other.OutputsDigest = "e"
	if got := breached(other); !reflect.DeepEqual(got, []string{"outputs_digest"}) {
		t.Errorf("same seed, different digest: breaches %v", got)
	}
	other.Seed = 2
	if got := breached(other); got != nil {
		t.Errorf("different seeds may differ in digest: breaches %v", got)
	}
	bad := rep(base)
	bad.Correct, bad.Failed = false, 1
	if got := breached(bad); !reflect.DeepEqual(got, []string{"correct"}) {
		t.Errorf("incorrect run: breaches %v", got)
	}
}

func TestParseMD1(t *testing.T) {
	text := "model                   rho  theory (us)     sim (us)    error\n" +
		"M/D/1                  0.30        0.069        0.069     0.0%\n" +
		"M/D/1                  0.90        1.440        1.477     2.5%\n" +
		"M/M/1 (truncated)      0.30        0.198        0.179     9.3%\n"
	got, err := parseMD1(text)
	if err != nil || got != 2.5 {
		t.Errorf("parseMD1 = %v, %v; want 2.5 (the M/M/1 rows do not count)", got, err)
	}
	if _, err := parseMD1("no table here"); err == nil {
		t.Error("parseMD1 accepted text without M/D/1 rows")
	}
}

// TestCountingTransport drives the cluster probe's RoundTripper
// against a stand-in worker: counts, retry detection, per-worker spans.
func TestCountingTransport(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte("0123456789"))
	}))
	defer srv.Close()
	tr := newTracer()
	ct := &countingTransport{
		next: http.DefaultTransport, tr: tr, ranges: map[string]bool{},
		tracks: map[string]int{strings.TrimPrefix(srv.URL, "http://"): 11},
	}
	hc := &http.Client{Transport: ct}
	sweep := tr.begin("sweep:table8", 0, 0, 0)
	ct.sweepSpan.Store(int64(sweep))
	post := func(body string) {
		resp, err := hc.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(got) != "0123456789" {
			t.Fatalf("body %q did not survive the transport", got)
		}
	}
	post(`{"cells":{"lo":0,"hi":3}}`)
	post(`{"cells":{"lo":3,"hi":6}}`)
	post(`{"cells":{"lo":0,"hi":3}}`) // the first range again: a retry
	ct.sweepSpan.Store(0)
	tr.finish(sweep)
	if _, err := hc.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}

	c := ct.snapshot()
	if c.requests != 3 || c.posts != 3 || c.dispatches != 3 || c.distinctRanges != 2 {
		t.Errorf("counts %+v, want 3 requests, 3 posts, 2 distinct ranges, and the health probe uncounted", c)
	}
	if want := int64(2*len(`{"cells":{"lo":0,"hi":3}}`) + len(`{"cells":{"lo":3,"hi":6}}`) + 30); c.bytes != want {
		t.Errorf("wire bytes %d, want %d", c.bytes, want)
	}
	spans := tr.finished()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want the sweep and three requests", len(spans))
	}
	for _, s := range spans[1:] {
		if s.name != "http:POST /jobs" || s.parent != sweep || s.op != sweep || s.track != 11 {
			t.Errorf("request span %+v: want http:POST /jobs under the sweep on track 11", s)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the program's own
// metric tables from drifting apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	// svc_mix is the program's alone: see workloadNames.
	if want := []string{"paper_packet", "paper_analytic", "cluster_sweep"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var declared []metricDef
	for _, d := range endToEnd {
		if d.declared() {
			declared = append(declared, d)
		}
	}
	if len(bf.EndToEnd) != len(declared) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d", len(bf.EndToEnd), len(declared))
	}
	for i, d := range declared {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, d)
		}
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rl resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, lines[len(lines)-1])
	}
	return rl
}

// TestSmoke runs every workload's smoke path untraced — one pass or
// 200 ops, every output check on — and one traced run with every probe.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	for _, w := range workloadNames {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-smoke", "-workload", w, "-seed", "5", "-out", dir}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", w, code, stderr.String())
		}
		rl := lastLine(t, stdout.String())
		if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
			t.Errorf("%s: result %+v\n%s", w, rl, stdout.String())
		}
		for _, d := range endToEnd {
			m, ok := rl.Metrics[d.name]
			if ok != d.declared() {
				t.Errorf("%s: metric %s on the result line: %v, declared: %v", w, d.name, ok, d.declared())
			}
			if ok && (m.Value <= 0 || m.Unit != d.unit) {
				t.Errorf("%s: %s = %v %s, want a positive value in %s", w, d.name, m.Value, m.Unit, d.unit)
			}
		}
		if !strings.Contains(stdout.String(), "outputs_digest ") {
			t.Errorf("%s: no outputs_digest line", w)
		}
		// Two runs of one seed compare clean except, perhaps, in time.
		if _, err := readReport(filepath.Join(dir, w+".json")); err != nil {
			t.Errorf("%s: result file: %v", w, err)
		}
	}
	svc, err := readReport(filepath.Join(dir, "svc_mix.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hit_ms_p50", "hit_ms_p99", "nocache_ms_p50", "cold_ms_p50", "failed_frac"} {
		if _, ok := svc.Metrics[name]; !ok {
			t.Errorf("svc_mix result file lacks %s", name)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-workload", "svc_mix", "-seed", "5", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("traced svc_mix: exit %d: %s", code, stderr.String())
	}
	rl := lastLine(t, stdout.String())
	if !rl.Correct || rl.Failed != 0 {
		t.Errorf("traced svc_mix: result %+v", rl)
	}
	for _, d := range perLayer {
		if m, ok := rl.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("traced run lacks per-layer metric %s in %s", d.name, d.unit)
		}
	}
	if len(rl.Metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(rl.Metrics), len(perLayer))
	}
	checkTraceFile(t, filepath.Join(dir, "svc_mix.trace.json"),
		"pass", "op:hit", "op:nocache", "op:cold", "http:POST /jobs", "http:GET events", "http:GET result", "probe:sim", "probe:cluster")
}

// checkTraceFile applies cmd/tracecheck's rules: complete events carry
// ts, dur >= 0, pid and tid, and are start-sorted within each track.
func checkTraceFile(t *testing.T, path string, require ...string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			Ts, Dur  *float64
			Pid, Tid *int
			Args     map[string]interface{}
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	seen := map[string]bool{}
	last := map[[2]int]float64{}
	ids := map[float64]bool{}
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Ts == nil || e.Dur == nil || *e.Dur < 0 || e.Pid == nil || e.Tid == nil {
			t.Fatalf("%s: event %d (%s) is not a well-formed complete event", path, i, e.Name)
		}
		k := [2]int{*e.Pid, *e.Tid}
		if prev, ok := last[k]; ok && *e.Ts < prev {
			t.Fatalf("%s: event %d (%s): ts %v precedes %v on its track", path, i, e.Name, *e.Ts, prev)
		}
		last[k] = *e.Ts
		seen[e.Name] = true
		ids[e.Args["id"].(float64)] = true
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if parent := e.Args["parent"].(float64); parent != 0 && !ids[parent] {
			t.Errorf("%s: span %s names parent %v, which is not in the file", path, e.Name, parent)
		}
	}
	for _, name := range require {
		if !seen[name] {
			t.Errorf("%s: no %q span", path, name)
		}
	}
}
