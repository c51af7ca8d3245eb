package scenario

import (
	"fmt"
	"strings"
	"testing"
)

const minimalExperiment = `{
  "schema": "quartz-scenario/v1",
  "name": "t",
  "experiment": {"name": "fig6"}
}`

func TestDecodeMinimalExperiment(t *testing.T) {
	f, err := Decode([]byte(minimalExperiment), "t.json")
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if f.Doc.Experiment == nil || f.Doc.Experiment.Name != "fig6" {
		t.Fatalf("experiment = %+v", f.Doc.Experiment)
	}
	if f.Doc.Seed != 2014 {
		t.Errorf("default seed = %d, want 2014", f.Doc.Seed)
	}
	if f.Doc.Title != "t" {
		t.Errorf("default title = %q, want name", f.Doc.Title)
	}
}

func TestJSONLineIndex(t *testing.T) {
	doc := `{
  "schema": "quartz-scenario/v1",
  "name": "lines",
  "sim": {
    "topology": {"kind": "tree3", "quartz": "edge"},
    "workload": {
      "kind": "scatter"
    },
    "faults": {
      "events": [
        {"kind": "link", "link": 3, "at_ms": 2},
        {"kind": "switch", "switch": "agg0", "at_ms": 4}
      ]
    }
  }
}`
	index := jsonLineIndex([]byte(doc))
	want := map[string]int{
		"schema":                      2,
		"name":                        3,
		"sim":                         4,
		"sim.topology":                5,
		"sim.topology.kind":           5,
		"sim.workload.kind":           7,
		"sim.faults.events":           10,
		"sim.faults.events[0]":        11,
		"sim.faults.events[1].at_ms":  12,
		"sim.faults.events[1].switch": 12,
	}
	for path, line := range want {
		if got := index[path]; got != line {
			t.Errorf("line(%s) = %d, want %d", path, got, line)
		}
	}
}

func TestLineAncestorFallback(t *testing.T) {
	f, err := Decode([]byte(minimalExperiment), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	// experiment.trials was omitted; its line should fall back to the
	// experiment table's line.
	if got, want := f.Line("experiment.trials"), 4; got != want {
		t.Errorf("Line(experiment.trials) = %d, want %d (the experiment line)", got, want)
	}
	if got := f.Line("nonexistent.path"); got != 0 {
		t.Errorf("Line(unknown) = %d, want 0", got)
	}
}

func TestDecodeUnknownField(t *testing.T) {
	cases := []struct {
		name, file, doc, path string
		line                  int
		msg                   string
	}{
		{"typo", "t.json", `{
  "schema": "quartz-scenario/v1",
  "name": "t",
  "experiment": {"name": "fig6", "trails": 100}
}`, "experiment.trails", 4, "unknown field"},
		// sim.shards selected the multi-shard engine family until it was
		// deleted (DESIGN.md §11): a document that still carries it is
		// rejected by name, not silently run on one engine.
		{"removed sim.shards", "t.json", `{
  "schema": "quartz-scenario/v1",
  "name": "t",
  "sim": {"topology": {"kind": "ring"}, "workload": {"kind": "scatter"},
          "shards": 2}
}`, "sim.shards", 5, "unknown field"},
		// The same document in the removed TOML syntax is rejected too,
		// before any field is looked at.
		{"removed sim.shards, TOML", "t.toml", `schema = "quartz-scenario/v1"
name = "t"
[sim]
shards = 2
[sim.topology]
kind = "ring"
[sim.workload]
kind = "scatter"
`, "", 0, "TOML support was removed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.doc), tc.file)
			list, ok := err.(ErrorList)
			if !ok || len(list) != 1 {
				t.Fatalf("want an ErrorList of one, got %T: %v", err, err)
			}
			e := list[0]
			if e.Path != tc.path || e.Line != tc.line || !strings.Contains(e.Msg, tc.msg) {
				t.Errorf("got %s:%d path %q msg %q; want line %d path %q, a message with %q",
					e.File, e.Line, e.Path, e.Msg, tc.line, tc.path, tc.msg)
			}
		})
	}
}

func TestDecodeTypeError(t *testing.T) {
	doc := `{
  "schema": "quartz-scenario/v1",
  "name": "t",
  "experiment": {"name": "fig6", "trials": "many"}
}`
	_, err := Decode([]byte(doc), "t.json")
	if err == nil {
		t.Fatal("want error for type mismatch")
	}
	if msg := err.Error(); !strings.Contains(msg, "t.json:4") {
		t.Errorf("error %q should carry line 4", msg)
	}
}

func TestDecodeSyntaxError(t *testing.T) {
	doc := "{\n  \"schema\": \"quartz-scenario/v1\",\n  \"name\" \"t\"\n}"
	_, err := Decode([]byte(doc), "t.json")
	if err == nil {
		t.Fatal("want syntax error")
	}
	if msg := err.Error(); !strings.Contains(msg, "t.json:3") {
		t.Errorf("error %q should carry line 3", msg)
	}
}

// Only whitespace may follow the document: trailing bytes are refused
// whether or not they are JSON themselves, and located on their line.
func TestDecodeTrailingData(t *testing.T) {
	for _, tc := range []struct {
		name, tail string
		line       int // of the trailing-data error; 0 if accepted
	}{
		{"whitespace", " \t\r\n\n", 0},
		{"another object", "\n{\"more\": true}", 6},
		{"a word", " x", 5},
		{"a stray brace", "}", 5},
		{"a stray bracket", "\n\n]", 7},
		{"a comma", ",", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(minimalExperiment+tc.tail), "t.json")
			if tc.line == 0 {
				if err != nil {
					t.Fatalf("document followed by %q: %v", tc.tail, err)
				}
				return
			}
			want := fmt.Sprintf("t.json:%d: trailing data after the document", tc.line)
			if err == nil || err.Error() != want {
				t.Fatalf("document followed by %q: error %v, want %q", tc.tail, err, want)
			}
		})
	}
}

// The TOML syntax was removed, and with it the sniffing that chose a
// parser: bytes that do not start a JSON object get one explicit line
// whatever the name — not a TOML parse, and not a JSON syntax error at
// offset 0.
func TestFormatSniffing(t *testing.T) {
	if _, err := Decode([]byte("  \n"+minimalExperiment), "request"); err != nil {
		t.Errorf("JSON after leading space: %v", err)
	}
	toml := "schema = \"quartz-scenario/v1\"\nname = \"t\"\n[experiment]\nname = \"fig6\"\n"
	for _, tc := range []struct{ name, file, doc string }{
		{"toml bytes", "request", toml},
		{"toml bytes, json name", "t.json", "\n  # comment\n" + toml},
		{"json bytes, toml name", "t.toml", minimalExperiment},
		{"array", "request", "[1, 2]"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantNotJSON(t, tc.doc, tc.file) })
	}
}

// What the TOML subset parser's error table held — eight malformed
// documents, each of which it answered with a located message of its
// own — now gets the same answer as a well-formed one: there is no
// parser left to find the problem.
func TestTOMLErrors(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"inline table", "schema = \"quartz-scenario/v1\"\nsim = { x = 1 }\n"},
		{"bad value", "name = yes\n"},
		{"duplicate key", "name = \"a\"\nname = \"b\"\n"},
		{"no assign", "just some words\n"},
		{"bad header", "[sim\nname = \"a\"\n"},
		{"unterminated string", "name = \"abc\n"},
		{"unknown field", "schema = \"quartz-scenario/v1\"\nname = \"t\"\n[experiment]\nname = \"fig6\"\ntrails = 3\n"},
		{"type error", "schema = \"quartz-scenario/v1\"\nname = \"t\"\n[experiment]\nname = \"fig6\"\ntrials = \"many\"\n"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantNotJSON(t, tc.src, "bad.toml") })
	}
}

// wantNotJSON requires Decode to answer doc with exactly the one
// "documents are JSON" line.
func wantNotJSON(t *testing.T, doc, file string) {
	t.Helper()
	_, err := Decode([]byte(doc), file)
	if list, ok := err.(ErrorList); !ok || len(list) != 1 {
		t.Fatalf("want an ErrorList of one, got %T: %v", err, err)
	}
	if want := file + ": " + ErrNotJSON.Error(); err.Error() != want {
		t.Errorf("got %q, want %q", err, want)
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &Error{File: "a.json", Line: 7, Path: "sim.workload.kind", Msg: "boom"}
	if got, want := e.Error(), "a.json:7: sim.workload.kind: boom"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	e2 := &Error{Msg: "just a message"}
	if got := e2.Error(); got != "just a message" {
		t.Errorf("Error() = %q", got)
	}
}
