package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
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
}

func TestScenarioStoreHTTP(t *testing.T) {
	s, url := realRegistryServer(t)
	client := &http.Client{}
	put := func(name, body string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodPut, url+"/scenarios/"+name, strings.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}

	// Bad document: 400 with the field-precise message.
	resp, data := put("broken", `{"schema": "quartz-scenario/v1", "name": "broken",
	                              "experiment": {"name": "fig66"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad doc: %d", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte("did you mean")) {
		t.Errorf("error lost the suggestion: %s", data)
	}

	// Name mismatch: 400.
	if resp, _ := put("other-name", scenarioTable2); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("name mismatch accepted: %d", resp.StatusCode)
	}

	// Good document: stored, listed, retrievable byte-for-byte.
	resp, data = put("table2-tiny", scenarioTable2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, data)
	}
	var sb struct {
		Experiment string `json:"experiment"`
		Key        string `json:"key"`
	}
	if err := json.Unmarshal(data, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Experiment != "table2" || sb.Key == "" {
		t.Errorf("put response = %s", data)
	}

	getResp, err := http.Get(url + "/scenarios/table2-tiny")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if string(raw) != scenarioTable2 {
		t.Errorf("stored document drifted: %s", raw)
	}

	var list []json.RawMessage
	if r := getJSON(t, url+"/scenarios", &list); r.StatusCode != http.StatusOK || len(list) != 1 {
		t.Errorf("list: %d entries", len(list))
	}

	// Submit by reference; runs the stored compiled form.
	respRef, dataRef := postBody(t, url, `{"scenario_ref": "table2-tiny"}`)
	if respRef.StatusCode != http.StatusAccepted && respRef.StatusCode != http.StatusOK {
		t.Fatalf("scenario_ref submit: %d %s", respRef.StatusCode, dataRef)
	}
	var vRef View
	if err := json.Unmarshal(dataRef, &vRef); err != nil {
		t.Fatal(err)
	}
	if vRef.Key != sb.Key {
		t.Errorf("ref submission key %s, stored key %s", vRef.Key, sb.Key)
	}
	waitDone(t, s, vRef.ID)

	// Delete, then the ref 404s at submit time.
	delReq, _ := http.NewRequest(http.MethodDelete, url+"/scenarios/table2-tiny", nil)
	if resp, err := client.Do(delReq); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v %d", err, resp.StatusCode)
	}
	if resp, _ := postBody(t, url, `{"scenario_ref": "table2-tiny"}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted ref submit: %d, want 404", resp.StatusCode)
	}
	if resp, err := http.Get(url + "/scenarios/table2-tiny"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted get: %d, want 404", resp.StatusCode)
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
		{"two selectors", `{"experiment": "table2", "scenario_ref": "x"}`,
			http.StatusBadRequest, "pick one"},
		{"scenario with params", `{"scenario_ref": "none", "params": {"trials": 3}}`,
			http.StatusBadRequest, "drop the params field"},
		{"unknown ref", `{"scenario_ref": "nope"}`,
			http.StatusNotFound, "unknown scenario"},
		{"nothing selected", `{}`,
			http.StatusNotFound, "unknown experiment"},
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

// A workload that needs more hosts than the topology has fails its job
// with a message naming the field; it used to panic on the worker
// goroutine and take the daemon down with it.
func TestFanoutExceedingHostsFailsTheJob(t *testing.T) {
	s, url := realRegistryServer(t)
	resp, data := postBody(t, url, `{"schema": "quartz-scenario/v1", "name": "wide",
	  "sim": {"duration_ms": 1, "topology": {"kind": "tree3"}, "workload": {"kind": "scatter", "fanout": 100}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var v View
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Job(v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	_, msg := j.Output()
	if st := j.State(); st != StateFailed || !strings.Contains(msg, "sim.workload.fanout: scatter with fanout 100 needs 101 hosts") {
		t.Errorf("job ended %v with %q, want failed naming sim.workload.fanout", st, msg)
	}
	// The daemon keeps serving.
	resp2, data2 := postBody(t, url, scenarioTable2)
	if resp2.StatusCode != http.StatusAccepted && resp2.StatusCode != http.StatusOK {
		t.Fatalf("submit after the failed job: %d %s", resp2.StatusCode, data2)
	}
	var v2 View
	if err := json.Unmarshal(data2, &v2); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v2.ID)
}

func TestScenarioStoreCap(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{Lookup: sr.lookup, ScenarioEntries: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	mk := func(name string) string {
		return `{"schema": "quartz-scenario/v1", "name": "` + name + `",
		         "experiment": {"name": "table2"}}`
	}
	if _, err := s.PutScenario("one", []byte(mk("one"))); err != nil {
		t.Fatal(err)
	}
	// Overwriting the existing name is fine at capacity.
	if _, err := s.PutScenario("one", []byte(mk("one"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutScenario("two", []byte(mk("two"))); err == nil || !strings.Contains(err.Error(), "store full") {
		t.Errorf("want store-full error, got %v", err)
	}
}
