package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/service"
)

// recordedStream is a real worker's GET /jobs/{id}/events body for a
// six-cell table8 range (curl -N against a stock quartzd).
func recordedStream(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/worker_stream.sse")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReadEventsRecordedStream: the recorded stream reads as "done"
// with every progress tick delivered in order.
func TestReadEventsRecordedStream(t *testing.T) {
	var ticks []int
	state, errMsg, err := readEvents(bytes.NewReader(recordedStream(t)), func(done int) { ticks = append(ticks, done) })
	if err != nil || state != service.StateDone || errMsg != "" {
		t.Fatalf("readEvents = %v, %q, %v; want done", state, errMsg, err)
	}
	if len(ticks) != 3 || ticks[0] != 4 || ticks[2] != 6 {
		t.Errorf("progress ticks %v, want [4 5 6]", ticks)
	}
	failed := "event: state\ndata: {\"state\":\"failed\",\"error\":\"context deadline exceeded\"}\n\n"
	if state, errMsg, err := readEvents(strings.NewReader(failed), func(int) {}); err != nil || state != service.StateFailed || !strings.Contains(errMsg, "deadline") {
		t.Errorf("failed stream = %v, %q, %v", state, errMsg, err)
	}
}

// FuzzEventStream feeds arbitrary bytes to the coordinator's SSE
// reader. It must never panic, never report success without having
// read a terminal "state" event, and never accept an over-long line
// (TestReadEventsRejectsLongLine pins the error it answers with).
func FuzzEventStream(f *testing.F) {
	rec := recordedStream(f)
	f.Add(rec)
	f.Add(rec[:len(rec)/2])                                                   // cut mid-job
	f.Add([]byte("event: state\ndata: {\"state\":\"cancelled\"}\n"))          // no blank line before EOF
	f.Add([]byte("event:state\ndata:{\"state\":\"done\"}\n\n: keep-alive\n")) // no space after the colon, a comment
	f.Add([]byte("event: progress\ndata: {\"done\":\"three\"}\n\n"))
	f.Add([]byte("data: {\"state\":\"done\"}\n\n")) // a state with no event name is not a state event
	f.Fuzz(func(t *testing.T, stream []byte) {
		state, _, err := readEvents(bytes.NewReader(stream), func(int) {})
		if err != nil {
			return
		}
		for _, line := range bytes.Split(stream, []byte("\n")) {
			if len(line) > maxEventLine+1 { // +1: a trailing \r is not part of the line
				t.Fatalf("a %d-byte line was accepted", len(line))
			}
		}
		if !state.Terminal() {
			t.Fatalf("success with non-terminal state %v", state)
		}
		if !bytes.Contains(stream, []byte("state")) {
			t.Fatalf("terminal state %v reported from a stream with no state event: %q", state, stream)
		}
	})
}

// TestReadEventsRejectsLongLine: the 1 MiB line bound is an error, not
// an allocation.
func TestReadEventsRejectsLongLine(t *testing.T) {
	long := "event: state\ndata: " + strings.Repeat("x", maxEventLine+1) + "\n"
	if _, _, err := readEvents(strings.NewReader(long), func(int) {}); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("over-long line: err = %v, want bufio.ErrTooLong", err)
	}
}
