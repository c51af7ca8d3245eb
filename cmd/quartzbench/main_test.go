package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// A report that cannot be written fails the run: -json /dev/full once
// printed "wrote run report" and exited 0.
func TestJSONReportWriteFailureFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for name, value := range map[string]string{"run": "table2", "json": "/dev/full"} {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, old) })
	}
	if err := run(); err == nil || !strings.Contains(err.Error(), "writing report") {
		t.Fatalf("run() = %v, want a report write error", err)
	}
}
