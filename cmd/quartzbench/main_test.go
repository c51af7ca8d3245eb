package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// A flag that describes what a -scenario document describes is refused
// with exit status 2 before anything runs, not silently overridden by
// the document. The test re-executes its own binary as quartzbench.
func TestScenarioRejectsRunFlags(t *testing.T) {
	if args := os.Getenv("QUARTZBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"quartzbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	const doc = "../../examples/scenarios/figure6.json"
	for _, tc := range []struct{ args, want string }{
		{"-seed 9 -run fig17", "-run and -scenario both describe the run; set experiment.name in " + doc},
		{"-seed 9", "-seed and -scenario both describe the run; set seed in " + doc},
		{"-trials 10", "-trials and -scenario both describe the run; set experiment.trials"},
		{"-tasks 2", "-tasks and -scenario both describe the run; set experiment.tasks"},
		{"-rpcs 10", "-rpcs and -scenario both describe the run; set experiment.rpcs"},
	} {
		args := "-scenario " + doc + " " + tc.args
		cmd := exec.Command(os.Args[0], "-test.run=^TestScenarioRejectsRunFlags$")
		cmd.Env = append(os.Environ(), "QUARTZBENCH_TEST_ARGS="+args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Errorf("quartzbench %s: %v, want exit status 2", args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("quartzbench %s: stderr lacks %q:\n%s", args, tc.want, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("quartzbench %s: a refused invocation printed\n%s", args, stdout.String())
		}
	}
}
