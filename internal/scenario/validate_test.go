package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden .err files")

// Golden tests: every testdata/*.json and *.toml must fail Decode, and
// the full error text (one problem per line, file:line: path: msg) must
// match the .err file next to it — for the .toml, a document in the
// removed syntax, that is the single line saying so. Run with -update
// to regenerate.
func TestValidationGoldens(t *testing.T) {
	docs, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	tomls, err := filepath.Glob("testdata/*.toml")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, tomls...)
	if len(docs) == 0 {
		t.Fatal("no testdata documents")
	}
	for _, path := range docs {
		t.Run(filepath.Base(path), func(t *testing.T) {
			_, err := Load(path)
			if err == nil {
				t.Fatalf("%s decoded cleanly; every testdata document must fail", path)
			}
			got := err.Error() + "\n"
			golden := path + ".err"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run: go test ./internal/scenario -run Goldens -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("error text drifted.\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

func TestValidateCollectsAllErrors(t *testing.T) {
	doc := `{
  "schema": "quartz-scenario/v1",
  "name": "Bad Name!",
  "sim": {
    "topology": {"kind": "hypercube"},
    "workload": {"kind": "scatter", "pps": -5}
  }
}`
	_, err := Decode([]byte(doc), "multi.json")
	if err == nil {
		t.Fatal("want errors")
	}
	list, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("want ErrorList, got %T", err)
	}
	if len(list) < 3 {
		t.Errorf("want all 3 problems reported at once, got %d:\n%s", len(list), err)
	}
	// Sorted by line: name (3) before topology (5) before pps (6).
	for i := 1; i < len(list); i++ {
		if list[i-1].Line > list[i].Line {
			t.Errorf("errors not in document order: %v", err)
		}
	}
}

func TestExperimentSuggestion(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "t", "experiment": {"name": "fig66"}}`
	_, err := Decode([]byte(doc), "t.json")
	if err == nil || !strings.Contains(err.Error(), `did you mean "fig6"?`) {
		t.Errorf("want a fig6 suggestion, got: %v", err)
	}
}

func TestSweepValidation(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{
			"unknown axis",
			`{"schema": "quartz-scenario/v1", "name": "t", "experiment": {"name": "fig6"},
			  "sweep": {"axes": {"wavelengths": [1, 2]}}}`,
			"unknown sweep axis",
		},
		{
			"sim axis on experiment doc",
			`{"schema": "quartz-scenario/v1", "name": "t", "experiment": {"name": "fig6"},
			  "sweep": {"axes": {"fanout": [1, 2]}}}`,
			"unknown sweep axis",
		},
		{
			"removed shards axis",
			`{"schema": "quartz-scenario/v1", "name": "t",
			  "sim": {"topology": {"kind": "ring"}, "workload": {"kind": "scatter"}},
			  "sweep": {"axes": {"shards": [1, 2]}}}`,
			"unknown sweep axis",
		},
		{
			"cap",
			`{"schema": "quartz-scenario/v1", "name": "t", "experiment": {"name": "fig6"},
			  "sweep": {"axes": {"seed": [1,2,3,4,5,6,7,8,9,10]}, "trials": 100}}`,
			"the cap is 512",
		},
		{
			"bad value",
			`{"schema": "quartz-scenario/v1", "name": "t", "experiment": {"name": "fig6"},
			  "sweep": {"axes": {"trials": [100, "lots"]}}}`,
			"sweep.axes.trials[1]: want int, got lots",
		},
		{
			"bad quartz for topology",
			`{"schema": "quartz-scenario/v1", "name": "t",
			  "sim": {"topology": {"kind": "jellyfish"}, "workload": {"kind": "scatter"}},
			  "sweep": {"axes": {"quartz": ["core"]}}}`,
			"does not support quartz",
		},
		{"cap past 2^64 cells", overflowSweep(), "the cap is 512"},
		{
			"zero value",
			`{"schema": "quartz-scenario/v1", "name": "t", "experiment": {"name": "fig6"},
			  "sweep": {"axes": {"trials": [100, 0]}}}`,
			"sweep.axes.trials[1]: 0 is not a sweep value",
		},
		{
			"seed out of range",
			`{"schema": "quartz-scenario/v1", "name": "t", "experiment": {"name": "fig6"},
			  "sweep": {"axes": {"seed": [1, -1]}}}`,
			"sweep.axes.seed[1]: value -1 out of range [1, 4611686018427387904]",
		},
		{
			"value out of its field's range",
			`{"schema": "quartz-scenario/v1", "name": "t",
			  "sim": {"topology": {"kind": "ring"}, "workload": {"kind": "scatter"}},
			  "sweep": {"axes": {"fanout": [2, 5000]}}}`,
			"sweep.axes.fanout[1]: cell fanout=5000: sim.workload.fanout: value 5000 out of range [1, 4096]",
		},
		{
			"fanout wider than the fabric",
			`{"schema": "quartz-scenario/v1", "name": "t",
			  "sim": {"topology": {"kind": "tree3"}, "workload": {"kind": "scatter"}},
			  "sweep": {"axes": {"fanout": [63, 64]}}}`,
			`sweep.axes.fanout[1]: cell fanout=64: sim.workload.fanout: scatter with fanout 64 needs 65 hosts; the three-tier tree (topology "tree3") has 64`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.doc), "t.json")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want %q in error, got: %v", tc.want, err)
			}
		})
	}
}

// A cell is the document it runs, so a problem that only a cell has is
// reported once, however many trials and other axis values repeat it,
// at the value that writes the field, naming the first such cell.
func TestSweepCellProblemReportedOnce(t *testing.T) {
	_, err := Decode([]byte(`{"schema": "quartz-scenario/v1", "name": "t",
	  "sim": {"topology": {"kind": "tree3"}, "workload": {"kind": "permutation"}},
	  "sweep": {"axes": {"tasks": [1, 3], "pps": [1000, 2000], "seed": [1, 2]}, "trials": 4}}`), "t.json")
	list, ok := err.(ErrorList)
	if !ok || len(list) != 1 {
		t.Fatalf("want one problem, got %T: %v", err, err)
	}
	const want = "t.json:3: sweep.axes.tasks[1]: cell pps=1000 seed=1 tasks=3: sim.workload.tasks: permutation is a single global pattern"
	if !strings.HasPrefix(list[0].Error(), want) {
		t.Errorf("got  %s\nwant %s…", list[0], want)
	}
}

// A duration is validated as the picoseconds the run lasts: one that
// rounds to 0 ps would reach the queue sampler as no horizon at all
// (a panic in NewSim, on a quartzd worker's goroutine), as a field or
// as a sweep axis value alike.
func TestDurationValidatedInPicoseconds(t *testing.T) {
	for _, tc := range []struct{ name, duration, sweep, want string }{
		{"field", `1e-10`, ``, "sim.duration_ms: duration 1e-10 ms rounds to 0 ps"},
		{"axis value", `1`, `, "sweep": {"axes": {"duration_ms": [1, 1e-10]}}`,
			"sweep.axes.duration_ms[1]: cell duration_ms=1e-10: sim.duration_ms: duration 1e-10 ms rounds to 0 ps"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(`{"schema": "quartz-scenario/v1", "name": "t",
			  "sim": {"topology": {"kind": "ring"}, "workload": {"kind": "scatter"},
			          "duration_ms": `+tc.duration+`, "probes": {"queue_sample_us": 100}}`+tc.sweep+`}`), "t.json")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want %q in error, got: %v", tc.want, err)
			}
		})
	}
}

// overflowSweep is a 9 KB document of eight sim axes with 256 values
// each: 2⁶⁴ cells, which an unchecked product of the axis lengths wraps
// to 0, under the cap.
func overflowSweep() string {
	axes := make([]string, 0, 8)
	for _, ax := range [][2]string{
		{"seed", "1"}, {"tasks", "1"}, {"fanout", "1"}, {"packet_size", "64"},
		{"pps", "1000"}, {"duration_ms", "1"}, {"workload", `"scatter"`}, {"quartz", `"none"`},
	} {
		axes = append(axes, fmt.Sprintf("%q: [%s%s]", ax[0], strings.Repeat(ax[1]+",", 255), ax[1]))
	}
	return `{"schema": "quartz-scenario/v1", "name": "t",
	  "sim": {"topology": {"kind": "tree3"}, "workload": {"kind": "scatter"}},
	  "sweep": {"axes": {` + strings.Join(axes, ", ") + `}}}`
}

// Fault times are validated as the picoseconds the runner uses, not as
// the milliseconds the document writes: a positive time that rounds to
// 0 ps would reach FaultInjector.Apply as "keep the default delay" or
// "never repair", and one past the clock would overflow it.
func TestFaultTimesValidatedInPicoseconds(t *testing.T) {
	doc := func(faults string) string {
		return `{"schema": "quartz-scenario/v1", "name": "t",
		  "sim": {"topology": {"kind": "ring"}, "workload": {"kind": "scatter"},
		          "duration_ms": 10, "faults": ` + faults + `}}`
	}
	for _, tc := range []struct {
		name, faults string
		want         []string // error paths, in order; none when the document is valid
	}{
		{"delay below 1 ps",
			`{"detect_ms": 1e-10, "events": [{"kind": "link", "link": 1, "at_ms": 1}]}`,
			[]string{"sim.faults.detect_ms"}},
		{"fault and repair below 1 ps",
			`{"events": [{"kind": "link", "link": 1, "at_ms": 1e-10, "repair_ms": 4e-10}]}`,
			[]string{"sim.faults.events[0].at_ms", "sim.faults.events[0].repair_ms"}},
		{"repair in the fault's picosecond",
			`{"events": [{"kind": "link", "link": 1, "at_ms": 1, "repair_ms": 1.0000000001}]}`,
			[]string{"sim.faults.events[0].repair_ms"}},
		{"fault in the run's last picosecond",
			`{"events": [{"kind": "link", "link": 1, "at_ms": 9.9999999999}]}`,
			[]string{"sim.faults.events[0].at_ms"}},
		{"repair past the end of virtual time",
			`{"events": [{"kind": "link", "link": 1, "at_ms": 1, "repair_ms": 1e300}]}`,
			[]string{"sim.faults.events[0].repair_ms"}},
		{"delay of one picosecond",
			`{"detect_ms": 6e-10, "events": [{"kind": "link", "link": 1, "at_ms": 1, "repair_ms": 1.000000001}]}`,
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(doc(tc.faults)), "t.json")
			var got []string
			if list, ok := err.(ErrorList); ok {
				for _, e := range list {
					got = append(got, e.Path)
				}
			} else if err != nil {
				t.Fatalf("want an ErrorList, got %T: %v", err, err)
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("errors at %q, want %q:\n%v", got, tc.want, err)
			}
		})
	}
}
