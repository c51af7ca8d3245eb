package experiments_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/table"
)

// The hashes below pin the rendered text of every registry experiment
// (and one scenario) at small fixed parameters. The packet-level hashes
// were recorded on the commit before the forward path was reworked to
// move packets by pointer and elide idle-port completions, the scenario
// hash on the commit before the multi-shard execution family was
// deleted, the six analytic hashes (fig5 … fig1) on the commit before
// the fiber-cut and max-min kernels were rewritten, and the last nine
// (fig14 … table16) on the commit before the grid experiments moved
// behind one constructor, so "byte-identical output" is checked across
// commits, not only within one process. The event counts beside them
// were recorded with `quartzbench -json` on the commit before counts
// became values of the run, less what that commit simulated and no
// longer does: fig14tcp's twice-run baselines (1 100 events) and
// f6dynamic's cancellation poller (19). A change that alters simulation
// results on purpose re-records them (the failure message prints the
// new values) and says why in CHANGES.md.

var goldenParams = experiments.Params{Seed: 7, Trials: 200, Tasks: 2, RPCs: 50}

// goldenRun is what an experiment's run is pinned to: the SHA-256 of its
// text and the number of simulator events it processed (0 for the
// analytic experiments). An event count is fixed by the code, the
// parameters and the seed, so it is a golden value like the text.
type goldenRun struct {
	hash   string
	events uint64
}

var goldenExperiments = map[string]goldenRun{
	"fig17":     {"6a87dea563ce44a1fab1369a1133de97e370824b23f3f207719f183d6a110da7", 1739302},
	"fig18":     {"07f8e8ba993c6645003fddfdb218254bc119cac82d24af916226b83ddc00d4db", 895871},
	"fig20":     {"640b9f3fd2bc0f1c584df186d043e27262c9d58659b664aa570a96d8ed67ddb2", 827859},
	"validate":  {"839fa78c5563819b62474090eaf8ebae41ee84a938d6ed64a8011a4117d16307", 277439},
	"table8":    {"384948e574b97da983f4edad622a181c7836506002bbf32d4ba6d942eab4adcb", 3027315},
	"ablations": {"8ea7eb4b65e50b08f82a8f03d0d0dc7d548a3c8397641cc8e8f0f589a7ea85a1", 1289724},
	"fig5":      {"63ae0bdc38d22b9201acb927d8ba577a85e2ca65416c4cd3698e5675308f3f63", 0},
	"fig6":      {"e3fef0f6e1111e2aba885c33645ef1f3047d7f3b5cbad51f52b7a6c860720f64", 0},
	"table9":    {"df45aa175fd8da8813f038b63f286fd2f9d896372d7f171dabc6e215b5ac3aee", 0},
	"fig10":     {"71d3b19b83eea61e673b5753ff36a70efa63d603885902ef4ecb4b1f55cca83d", 0},
	"oversub":   {"02170b8f8100caf471de0b3f722970d474a6a15bc323bd10cc704351785de975", 0},
	"fig1":      {"7ef39b3714c616297bba89df9fa0edf30ad7ff97ab31de76dbf3e6fbd52690ed", 0},
	"fig14":     {"9f74fe966a2c7640b75ad7c1ee855ac31dae2a13f0b1785751a9b29e417401a4", 48974},
	"f6dynamic": {"6091aee44aaa6c6afff50f588fea892fa578f68f1a18f7375c2cc2090f258b07", 77941},
	"fig14tcp":  {"673af49edb17cbd75720a2a20e53b13b7b67a2038e04c9c6cf7b97a15fe89a1e", 132075},
	"fct":       {"cdfe8e44f83cfce2ec5a52abe84351be4cba22ebf208c53aa7f39f2573050630", 1703195},
	"sched":     {"46db7b89426dba30c4884536abfa6935ea162061dfc6a98d375c12daffbba0ba", 147669},
	"prio":      {"be305acdc2e505b7811f90e180834a374a3e9bb7f55243c0c80914647633c59e", 19472},
	"stack":     {"64bb5fb91a84cf94cdf0c2cf212fea9e031d944be58f647b2cc9c928de38b8f3", 11600},
	"table2":    {"6385729777e5c5aca91f93d8f5cf516b8022a6bfc4606a7b30a581e819a95e32", 0},
	"table16":   {"638d8f63acbcf221ebd0068779d7337b03c26c5d45aeb419ee7fe5c8210d9db9", 0},
}

// goldenTables pins the CSV bytes of every table an experiment exports,
// by name, at goldenParams; an experiment missing here exports none.
// They were recorded on the commit before the tables were built as
// internal/table values, when a reflective writer printed the row
// structs, so "no CSV byte changes" is checked across that rewrite.
var goldenTables = map[string][]goldenTable{
	"fig5":   {{"figure5", "f31668fcb189963bfb523d76f44d807a72a00597bd76bddbacc1708a53d2b76d"}},
	"table9": {{"table9", "583c41ed25ec0d8698614131064cf9b6d0999d8d767734614bd0c75980270472"}},
	"fig14":  {{"figure14", "3573282e62619b23e5192e8a1962e3b56ca0c02587770753f7d760e952207825"}},
	"fig17": {
		{"figure17-gather", "ebac20c1ec1b1017484f872272e5cddfd777386d9a15fae690fb5d6fccbb0440"},
		{"figure17-scatter", "65e95c8f18183ace9e1fe502981faf392c4578da037df92f4da59538092fd964"},
		{"figure17-scatter-gather", "465693890857c5f3ddba825e07aa0e706c1739312db34991754fe940c671a157"},
	},
	"fig20":     {{"figure20", "760bfedc69e7e4fb602abcb14626d34006d2061da5174e315eee73eaa75d0561"}},
	"f6dynamic": {{"figuref6", "a974e2fbec5b982cb04890e2d16a8d6f95c70fdafc7522598643f4c65a0d72aa"}},
	"table8":    {{"table8", "e3f2e8ab512c5c663995aa89c2c7d018ae513fa33d398324de6a9be27e7ef258"}},
}

// goldenTable is one exported table: its name and the SHA-256 of its
// CSV.
type goldenTable struct{ name, hash string }

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// csvDigest is the SHA-256 of tb's CSV.
func csvDigest(t *testing.T, tb table.Table) goldenTable {
	t.Helper()
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatalf("table %s: %v", tb.Name, err)
	}
	return goldenTable{tb.Name, textDigest(b.String())}
}

// checkTables compares an experiment's exported tables, in name order,
// with its goldenTables row.
func checkTables(t *testing.T, name string, out experiments.Output) {
	t.Helper()
	var got []goldenTable
	for _, tb := range out.Tables {
		got = append(got, csvDigest(t, tb))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].name < got[j].name })
	if want := goldenTables[name]; !reflect.DeepEqual(got, want) {
		t.Errorf("%s tables changed:\n got %v\nwant %v", name, got, want)
	}
}

func TestGoldenExperimentOutput(t *testing.T) {
	for _, e := range experiments.All() {
		if _, ok := goldenExperiments[e.Name]; !ok {
			t.Errorf("registry experiment %q has no golden hash", e.Name)
		}
	}
	for name, want := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := experiments.Find(name)
			if !ok {
				t.Fatalf("experiment %q not registered", name)
			}
			out, err := e.Run(context.Background(), goldenParams)
			if err != nil {
				t.Fatal(err)
			}
			if got := textDigest(out.Text); got != want.hash {
				t.Errorf("%s output changed: sha256 %s, want %s\n%s", name, got, want.hash, out.Text)
			}
			if out.Events != want.events {
				t.Errorf("%s processed %d events, want %d", name, out.Events, want.events)
			}
			checkTables(t, name, out)
		})
	}
}

// goldenScenario exercises what the registry experiments do not: the
// scenario runner, a fiber cut with held-and-detoured frames, the flow
// table, and the queue sampler reading port depth between packet
// events.
const goldenScenario = `{"schema": "quartz-scenario/v1", "name": "golden", "seed": 7,
 "sim": {"duration_ms": 4,
         "topology": {"kind": "ring"},
         "workload": {"kind": "scattergather", "tasks": 3, "fanout": 8},
         "faults": {"detect_ms": 0.5, "policy": "detour",
                    "events": [{"kind": "fiber", "fiber": 0, "segment": 2, "at_ms": 1, "repair_ms": 3}]},
         "probes": {"flows": true, "queue_sample_us": 50, "hot_ports": 4}}}`

const (
	goldenScenarioDigest = "52659b6da14c789c94a2454160cd9eb1d5dae8f90b418c032ab3a2a0153fdd99"
	goldenScenarioEvents = 22117
)

func TestGoldenScenario(t *testing.T) {
	f, err := scenario.Decode([]byte(goldenScenario), "golden.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Experiment.Run(context.Background(), c.Params)
	if err != nil {
		t.Fatal(err)
	}
	if got := textDigest(out.Text); got != goldenScenarioDigest {
		t.Errorf("scenario output changed: sha256 %s, want %s\n%s", got, goldenScenarioDigest, out.Text)
	}
	if out.Events != goldenScenarioEvents {
		t.Errorf("scenario processed %d events, want %d", out.Events, goldenScenarioEvents)
	}
}

// goldenSweeps pins what a scenario sweep merges: its text, its event
// count (the sum of its cells') and the CSV digest of every table its
// cells export, renamed per cell. They were recorded on the commit
// before sweeps ran on the Grid executor, when one serial loop ran the
// cells and wrote the merge, so "same bytes" is checked across that
// rewrite. doc is an examples/scenarios file name or an inline document.
var goldenSweeps = []struct {
	doc    string
	run    goldenRun
	tables []goldenTable
}{
	{"jellyfish-sweep.json", goldenRun{"11c2df36096116c99c21311470821a0a54cc1e8a2d90ffdab001e6f03ac061fc", 72075}, nil},
	{"scattergather.json", goldenRun{"a07e9a9edd18250a4e78df1a99c8f243e7877a521d0feeb42d0979609c0569e4", 578938}, nil},
	{`{"schema": "quartz-scenario/v1", "name": "fig5-seeds",
	   "experiment": {"name": "fig5"}, "sweep": {"axes": {"seed": [1, 2]}}}`,
		goldenRun{"2f07ae908cc349bc104e11aab6d98a9a4cf313ac67a59b0ec12865620cfb2a59", 0}, []goldenTable{
			{"figure5-cell001", "5ecb78bdcbb1bf41a50af86c0223eb542c2d836d597a5c740c32044da7154cc1"},
			{"figure5-cell002", "19efdc975c59f01b12743370f1a8d496e9ed66bf37c26e6eee11f780fa3d79dd"},
		}},
}

func TestGoldenSweeps(t *testing.T) {
	for _, g := range goldenSweeps {
		data, name := []byte(g.doc), "inline.json"
		if strings.HasSuffix(g.doc, ".json") {
			var err error
			name = g.doc
			if data, err = os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", g.doc)); err != nil {
				t.Fatal(err)
			}
		}
		f, err := scenario.Decode(data, name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Experiment.Run(context.Background(), c.Params)
		if err != nil {
			t.Fatal(err)
		}
		if got := textDigest(out.Text); got != g.run.hash || out.Events != g.run.events {
			t.Errorf("%s: sweep output changed: sha256 %s and %d events, want %s and %d\n%s",
				f.Doc.Name, got, out.Events, g.run.hash, g.run.events, out.Text)
		}
		var got []goldenTable
		for _, tb := range out.Tables {
			got = append(got, csvDigest(t, tb))
		}
		if !reflect.DeepEqual(got, g.tables) {
			t.Errorf("%s: sweep tables changed:\n got %v\nwant %v", f.Doc.Name, got, g.tables)
		}
	}
}

// The golden scenario's side band — its whole packet trace, its queue
// samples and its flow table — as CSV, recorded with goldenTables.
var goldenScenarioTables = []goldenTable{
	{"trace", "47a297cb31f4315eecca2547f680603ea5eb87ce8dd40308e8b6eb20522f3bbf"},
	{"queue_samples", "da194a57c8301ad3885cdf12ed95fc27a844b943576cf26650c64bdf6008867b"},
	{"flows", "3ffdb4bdd3d2c6d5038d481e83a16f43565a7f23eb7f1bda7ff0b562e7a2dab8"},
}

func TestGoldenScenarioTables(t *testing.T) {
	f, err := scenario.Decode([]byte(goldenScenario), "golden.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.NewSim(f.Doc.Sim, f.Doc.Seed, netsim.ObserveOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Net.Engine().Processed() != goldenScenarioEvents {
		t.Errorf("traced scenario processed %d events, want %d", s.Net.Engine().Processed(), goldenScenarioEvents)
	}
	for i, tb := range []table.Table{s.Obs.Trace().Table(), s.Obs.Sampler().Table(), s.Obs.Flows().Table()} {
		if got, want := csvDigest(t, tb), goldenScenarioTables[i]; got != want {
			t.Errorf("scenario side band changed: got %v, want %v", got, want)
		}
	}
}
