package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the front door every submission
// path shares (quartz.RunScenario, quartzsim -scenario and -run,
// quartzd): Decode and Compile never panic, a document that is
// accepted has nothing but whitespace after it (json.Valid judges),
// and it is a fixed point — Normalize changes nothing the second time,
// and its canonical form decodes again to the same identity. Every
// cell of an accepted sweep, written out as a document of its own (the
// base with the cell's values and seed, no sweep), decodes too.
// Seeded with every shipped example and the malformed testdata
// documents and a sweep whose cell count overflows an int; `make fuzz`
// runs it for ten seconds.
func FuzzDecode(f *testing.F) {
	for _, glob := range []string{filepath.Join(examplesDir, "*.json"), "testdata/*.json"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed documents match %s (%v)", glob, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(overflowSweep()))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data, "fuzz")
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a document that is not one JSON value and whitespace: %q", data)
		}
		if _, err := Compile(file); err != nil {
			return
		}
		doc := file.Doc
		again := doc.clone()
		again.Normalize()
		if !reflect.DeepEqual(doc, again) {
			t.Fatalf("Normalize is not idempotent:\n once  %s\n twice %s", Canonical(doc), Canonical(again))
		}
		re, err := Decode(Canonical(doc), "canonical")
		if err != nil {
			t.Fatalf("canonical form of an accepted document is rejected: %v\n%s", err, Canonical(doc))
		}
		if got, want := ScenarioName(re.Doc), ScenarioName(doc); got != want {
			t.Fatalf("canonical form re-decodes to %s, want %s\n%s", got, want, Canonical(doc))
		}
		if doc.Sweep == nil {
			return
		}
		for _, c := range cellsOf(&doc) {
			one, bad := c.doc(&doc)
			if bad != nil {
				t.Fatalf("cell %s of an accepted sweep: %v", c.label(doc.Sweep.Trials), ErrorList(bad))
			}
			one.Seed += int64(c.trial)
			one.Sweep = nil
			if _, err := Decode(Canonical(one), "cell"); err != nil {
				t.Fatalf("cell %s of an accepted sweep is rejected alone: %v\n%s", c.label(doc.Sweep.Trials), err, Canonical(one))
			}
		}
	})
}
