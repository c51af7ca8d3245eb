package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Every registered flag must be placed in exactly one usage group, so
// -h and -flagdoc can never silently omit a flag.
func TestEveryFlagGrouped(t *testing.T) {
	if missing := ungroupedFlags(); len(missing) > 0 {
		t.Fatalf("flags not in any usage group (add them to flagGroups in usage.go): %v", missing)
	}
	seen := map[string]int{}
	for _, g := range flagGroups {
		for _, name := range g.flags {
			seen[name]++
			if flag.Lookup(name) == nil {
				t.Errorf("group %q lists %q, which is not a registered flag", g.title, name)
			}
		}
	}
	for name, n := range seen {
		if n > 1 {
			t.Errorf("flag %q appears in %d groups", name, n)
		}
	}
}

func TestFlagDocOutput(t *testing.T) {
	var b strings.Builder
	writeFlagDoc(&b)
	out := b.String()
	var total int
	for _, g := range flagGroups {
		if !strings.Contains(out, "### "+g.title) {
			t.Errorf("flagdoc missing section %q", g.title)
		}
		total += len(g.flags)
	}
	// Count rows by line prefix: defaults like -1 also render as
	// "| `-1` |" mid-line, so a plain substring count overcounts.
	var got int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "| `-") {
			got++
		}
	}
	if got != total {
		t.Errorf("flagdoc has %d flag rows, want %d", got, total)
	}
}

// TestRemovedFlagsRejected re-executes the test binary as quartzsim:
// a flag that went with the multi-shard engine (DESIGN.md §11) ends
// the process non-zero with the usage text — it is not accepted and
// ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	if args := os.Getenv("QUARTZSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"quartzsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-shards 2", "-ms 1 -coalesce-us 5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedFlagsRejected$")
		cmd.Env = append(os.Environ(), "QUARTZSIM_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if _, failed := err.(*exec.ExitError); !failed {
			t.Errorf("quartzsim %s: err = %v, want a non-zero exit\n%s", args, err, out)
		}
		for _, want := range []string{"flag provided but not defined", "Usage: quartzsim [flags]"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("quartzsim %s: output lacks %q:\n%s", args, want, out)
			}
		}
	}
}
