package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSubmitBody feeds arbitrary bytes to the POST /jobs body parser.
// It never panics; what it accepts is a single JSON value with nothing
// but whitespace after it (json.Valid is the independent judge); and an
// accepted body — envelope or raw scenario document — marshals to an
// envelope that parses back to the same Request. json.Marshal compacts
// and HTML-escapes an inline scenario, so that field is compared in the
// form Marshal gives it. Seeded with the shipped scenario documents and
// the envelopes the service tests submit; `make fuzz` runs it for ten
// seconds.
func FuzzSubmitBody(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed documents under examples/scenarios (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{
		`{"experiment":"echo","params":{"seed":11}}`,
		`{"experiment":"echo","params":{"shards":2}}`,
		`{"experiment":"echo","parms":{"seed":1}}`,
		`{"experiment": "table2", "scenario_ref": "x"}`,
		`{"scenario_ref": "none", "params": {"trials": 3}}`,
		`{"scenario": {"schema": "quartz-scenario/v1", "name": "in", "experiment": {"name": "table2"}}, "no_cache": true}`,
		`{"experiment":"table8","params":{"seed":7,"trials":100,"tasks":2,"rpcs":50},"cells":{"lo":2,"hi":4},"timeout_secs":1.5,"trace_id":"t-1"}`,
		`{"experiment":"fig5"}]`,
		`{"experiment":"fig5"} x`,
		`{}`,
		"[1, 2]",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseSubmitBody(body)
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted a body that is not one JSON value and whitespace: %q", body)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not marshal: %v", req, err)
		}
		again, err := parseSubmitBody(wire)
		if err != nil {
			t.Fatalf("re-marshalled request is rejected: %v\n%s", err, wire)
		}
		if req.Scenario != nil {
			if req.Scenario, err = json.Marshal(req.Scenario); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("request changes across marshal and parse:\n before %+v\n after  %+v", req, again)
		}
	})
}
