package experiments_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/scenario"
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

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
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
