package traffic

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseTrace feeds arbitrary text to the trace reader. Every event
// it accepts lies in [0, maxTraceTime], and writing the events back out
// and reading them again gives the same events, to the picosecond.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"at_us,src,dst,size\n1.5,0,1,400\n",
		"at_us,src,dst,size,flow,tag\n10,0,5,400,1,1\n20,1,6,400,2,3\n30.5,0,5,400,1,1\n",
		"1.001,3,4,64,-1,-7\n0.0000005,0,1,1500\n",
		"999999999.999999,0,1,400,9,4096\n",
		"NaN,0,1,400\n",
		"1e300,0,1,400\n",
		"-0.0000004,0,1,400\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		events, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, ev := range events {
			if ev.At < 0 || ev.At > maxTraceTime {
				t.Fatalf("event %d: time %d ps outside [0, %d]", i, ev.At, maxTraceTime)
			}
		}
		var out strings.Builder
		if err := WriteTrace(&out, events); err != nil {
			t.Fatal(err)
		}
		back, err := ParseTrace(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("written trace refused: %v\n%s", err, out.String())
		}
		if !slices.Equal(back, events) {
			t.Fatalf("round trip changed the events:\n got %+v\nwant %+v", back, events)
		}
	})
}
