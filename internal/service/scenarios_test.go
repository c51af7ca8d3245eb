package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/scenario"
)

// scenarioTable2 parameterizes a real registry experiment; small
// trials keep the test fast.
const scenarioTable2 = `{
  "schema": "quartz-scenario/v1",
  "name": "table2-tiny",
  "experiment": {"name": "table2", "trials": 2}
}`

func realRegistryServer(t *testing.T) (*Service, string) {
	t.Helper()
	s, ts, _ := newTestServer(t, Config{Lookup: experiments.Find})
	return s, ts.URL
}

func postBody(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func waitDone(t *testing.T, s *Service, id string) {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != StateDone {
		_, msg := j.Output()
		t.Fatalf("job %s ended %v: %s", id, st, msg)
	}
}

// The acceptance flow: POST a raw scenario document, let it run, POST
// it again, and see cache_hit=true — and a direct (non-scenario)
// submission of the same experiment+params must hit the same entry.
func TestRawScenarioSubmitAndCacheHit(t *testing.T) {
	s, url := realRegistryServer(t)

	resp, data := postBody(t, url, scenarioTable2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, data)
	}
	var v View
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Experiment != "table2" {
		t.Errorf("compiled experiment = %q, want the registry entry", v.Experiment)
	}
	waitDone(t, s, v.ID)

	resp2, data2 := postBody(t, url, scenarioTable2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp2.StatusCode, data2)
	}
	var v2 View
	if err := json.Unmarshal(data2, &v2); err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit {
		t.Error("identical scenario resubmission missed the cache")
	}
	if v2.Key != v.Key {
		t.Errorf("keys differ across submissions: %s vs %s", v2.Key, v.Key)
	}

	// Direct envelope, same experiment and parameters: the scenario's
	// cached result must serve it too (cross-representation parity).
	env, _ := json.Marshal(Request{Experiment: "table2", Params: ParamSpec{Trials: 2}})
	resp3, data3 := postBody(t, url, string(env))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("direct submit: %d %s", resp3.StatusCode, data3)
	}
	var v3 View
	if err := json.Unmarshal(data3, &v3); err != nil {
		t.Fatal(err)
	}
	if !v3.CacheHit || v3.Key != v.Key {
		t.Errorf("direct submission did not coalesce: hit=%v key=%s want %s", v3.CacheHit, v3.Key, v.Key)
	}

	// The same document inline in the envelope is served from the entry
	// the raw document filled.
	resp4, data4 := postBody(t, url, `{"scenario": `+scenarioTable2+`}`)
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("inline submit: %d %s", resp4.StatusCode, data4)
	}
	var v4 View
	if err := json.Unmarshal(data4, &v4); err != nil {
		t.Fatal(err)
	}
	if !v4.CacheHit || v4.Key != v.Key {
		t.Errorf("inline submission did not coalesce: hit=%v key=%s want %s", v4.CacheHit, v4.Key, v.Key)
	}
}

// Every shipped scenario document resolves to one cache key whether it
// is POSTed raw or inline, and that key is the compiled document's own
// (TestExamplesKeepTheirCacheKeys pins those).
func TestExamplesSubmitRawAndInline(t *testing.T) {
	s, _ := realRegistryServer(t)
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no documents under examples/scenarios (%v)", err)
	}
	for _, path := range paths {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := scenario.Decode(doc, path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		for shape, body := range map[string]string{"raw": string(doc), "inline": `{"scenario": ` + string(doc) + `}`} {
			req, err := parseSubmitBody([]byte(body))
			if err != nil {
				t.Fatalf("%s %s: %v", path, shape, err)
			}
			exp, params, err := s.resolve(req)
			if err != nil {
				t.Fatalf("%s %s: %v", path, shape, err)
			}
			if got, want := experiments.CacheKey(exp.Name, params), c.CacheKey(); got != want {
				t.Errorf("%s %s: cache key %s, want %s", path, shape, got, want)
			}
		}
	}
}

func TestScenarioSubmitErrors(t *testing.T) {
	_, url := realRegistryServer(t)
	cases := []struct {
		name, body string
		code       int
		want       string
	}{
		{"invalid scenario doc", `{"schema": "quartz-scenario/v1", "name": "x"}`,
			http.StatusBadRequest, `needs either an`},
		{"two selectors", `{"experiment": "table2", "scenario": ` + scenarioTable2 + `}`,
			http.StatusBadRequest, "pick one"},
		{"scenario with params", `{"scenario": ` + scenarioTable2 + `, "params": {"trials": 3}}`,
			http.StatusBadRequest, "drop the params field"},
		{"inline unknown experiment", `{"scenario": {"schema": "quartz-scenario/v1", "name": "x",
		                               "experiment": {"name": "fig66"}}}`,
			http.StatusBadRequest, "did you mean"},
		{"scenario_ref", `{"scenario_ref": "table2-tiny"}`,
			http.StatusBadRequest, `unknown field \"scenario_ref\"`},
		{"fanout wider than the fabric", `{"schema": "quartz-scenario/v1", "name": "wide",
		                                  "sim": {"topology": {"kind": "tree3"}, "workload": {"kind": "scatter", "fanout": 100}}}`,
			http.StatusBadRequest, "sim.workload.fanout: scatter with fanout 100 needs 101 hosts"},
		{"nothing selected", `{}`,
			http.StatusNotFound, "unknown experiment"},
		// Past time.Duration's range the float conversion wraps negative
		// (amd64) and would fail the job at once; below 1 ns it is zero.
		{"timeout overflows", `{"experiment": "table2", "timeout_secs": 1e10}`,
			http.StatusBadRequest, "bad timeout_secs"},
		{"timeout far past range", `{"experiment": "table2", "timeout_secs": 1e300}`,
			http.StatusBadRequest, "bad timeout_secs"},
		{"timeout below 1ns", `{"experiment": "table2", "timeout_secs": 1e-10}`,
			http.StatusBadRequest, "bad timeout_secs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postBody(t, url, tc.body)
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.code, data)
			}
			if !bytes.Contains(data, []byte(tc.want)) {
				t.Errorf("body %s missing %q", data, tc.want)
			}
		})
	}
}

// A body in the removed TOML syntax — anything that does not start a
// JSON object — is a 400 with the scenario decoder's one explicit line,
// not a job and not a JSON syntax error at offset 0.
func TestRawTOMLSubmit(t *testing.T) {
	s, url := realRegistryServer(t)
	toml := "schema = \"quartz-scenario/v1\"\nname = \"toml-sub\"\n[experiment]\nname = \"table2\"\ntrials = 2\n"
	for _, body := range []string{toml, "\n  " + toml, "[1, 2]"} {
		resp, data := postBody(t, url, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400 (%s)", body, resp.StatusCode, data)
		}
		if want := "scenario documents are JSON; TOML support was removed"; !bytes.Contains(data, []byte(want)) {
			t.Errorf("POST %q: body %s missing %q", body, data, want)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d job(s) admitted from rejected bodies", n)
	}
}

// A job's view shows the parameters its run reads: a simulation
// document's seed alone (it takes tasks and the rest from the document),
// a registry document's parameters with the registry's defaults filled
// in. Neither key moves: CacheKey applies the defaults itself.
func TestScenarioJobViewShowsTheParamsItRuns(t *testing.T) {
	s, url := realRegistryServer(t)
	const sim = `{"schema": "quartz-scenario/v1", "name": "view",
	  "sim": {"duration_ms": 0.1, "topology": {"kind": "tree3"}, "workload": {"kind": "scatter", "tasks": 4}}}`
	d := experiments.DefaultParams()
	for _, tc := range []struct {
		doc  string
		want ParamSpec
	}{
		{sim, ParamSpec{Seed: d.Seed}},
		{scenarioTable2, ParamSpec{Seed: d.Seed, Trials: 2, Tasks: d.Tasks, RPCs: d.RPCs}},
	} {
		resp, data := postBody(t, url, tc.doc)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		var v View
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, v.ID)
		var got View
		getJSON(t, url+"/jobs/"+v.ID, &got)
		if got.Params != tc.want {
			t.Errorf("%s: view params %+v, want %+v", v.Experiment, got.Params, tc.want)
		}
		if want := experiments.CacheKey(v.Experiment, tc.want.Params().WithDefaults()); got.Key != want {
			t.Errorf("%s: key %s, want %s", v.Experiment, got.Key, want)
		}
	}
}
